"""Sparse non-negative fODF estimation from spherical dMRI signals.

Submodules: sphere_grid (Healpix grids, Laplacian), harmonics (real even-degree
SH), signal_model (forward model and simulator), classical_csd (baseline
deconvolution), autodiff (reverse-mode engine), esd_net (the equivariant
network), peaks_metrics (peaks and scores), io_cli (files and CLI).
"""

__version__ = "0.1.0"
