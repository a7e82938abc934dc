"""motifbench: compose benchmark workloads from data-motif kernels, generate
their datasets, and analyze pipeline behavior from hardware-event counts."""

__version__ = "0.1.0"
