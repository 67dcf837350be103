"""pdmbubble: quantization workbench for the position-dependent-mass bubble
Hamiltonian of superheated liquid helium."""

__version__ = "0.1.0"
