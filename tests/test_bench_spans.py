"""The benchmark tracer's wrap targets still exist in the package.

``bench/layers.py`` swaps the attributes named in its ``SPANS`` table, plus
``Dataset.__init__`` and ``core.ThreadPoolExecutor``, and reads the
``Dataset._matrix`` memo slot.  Renaming one of them
breaks the traced benchmark; this test makes such a rename fail here too.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    missing = []
    for _, mod_name, owner_name, attrs in _load_layers().SPANS:
        module = importlib.import_module(mod_name)
        if owner_name is None:
            missing += [f"{mod_name}.{a}" for a in attrs if not callable(getattr(module, a, None))]
        else:
            owner = vars(module).get(owner_name)
            present = vars(owner) if isinstance(owner, type) else {}
            missing += [f"{mod_name}.{owner_name}.{a}" for a in attrs if a not in present]
    assert missing == []


def test_tracer_patch_points_exist():
    data = importlib.import_module("boxprobe.data")
    core = importlib.import_module("boxprobe.core")
    assert "__init__" in vars(data.Dataset)
    assert "_matrix" in data.Dataset.__slots__
    assert isinstance(core.ThreadPoolExecutor, type)
