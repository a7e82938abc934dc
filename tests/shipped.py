"""The example workload specs that ship inside the package, by name."""

from pathlib import Path

import motifbench

SHIPPED_SPECS = ("sift-like", "pagerank", "index", "cnn-forward")


def shipped_spec_path(name: str) -> str:
    """Filesystem path of one of the bundled example workload specs."""
    if name not in SHIPPED_SPECS:
        raise KeyError(f"no shipped spec {name!r}; have {', '.join(SHIPPED_SPECS)}")
    return str(Path(motifbench.__file__).with_name("specs") / f"{name}.spec")
