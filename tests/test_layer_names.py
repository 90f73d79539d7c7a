"""The engine names the benchmark's traced run wraps must exist.

``perfbench/layers.install()`` wraps each ``(module, attribute path)`` in
``PATCHES`` and a few more functions by name; a refactor that renames
one of them otherwise fails only in a traced benchmark run. These tests
import ``perfbench.layers`` and resolve the names without installing
anything.
"""

import importlib

import pytest

from perfbench import layers


@pytest.mark.parametrize("module, path", [(m, p) for m, p, *_ in layers.PATCHES])
def test_patched_layer_boundary_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("module, name", [
    ("ssb_sgis_ray.ops.spatial", "sjoin_cell_partitioned"),
    ("ssb_sgis_ray.state.manifest", "write_partitioned_resumable"),
    ("ssb_sgis_ray.state.manifest", "make_partition_writer"),
])
def test_wrapped_by_name_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))
