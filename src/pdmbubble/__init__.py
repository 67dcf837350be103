"""pdmbubble: quantization workbench for the position-dependent-mass bubble
Hamiltonian of superheated liquid helium."""

__version__ = "0.1.0"

#: Every printed float: 12 significant digits, scientific notation.
NUMBER = "%.11e"
