"""motifbench: compose benchmark workloads from data-motif kernels, generate
their datasets, and analyze pipeline behavior from hardware-event counts."""

__version__ = "0.1.0"

SHIPPED_SPECS = ("sift-like", "pagerank", "index", "cnn-forward")


def shipped_spec_path(name: str) -> str:
    """Filesystem path of one of the bundled example workload specs.
    importlib.resources is imported here: only tests call this, and the
    module costs every CLI process tens of milliseconds."""
    from importlib import resources

    if name not in SHIPPED_SPECS:
        raise KeyError(f"no shipped spec {name!r}; have {', '.join(SHIPPED_SPECS)}")
    return str(resources.files("motifbench").joinpath("specs", f"{name}.spec"))
