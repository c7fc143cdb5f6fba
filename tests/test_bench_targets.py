"""The traced benchmark wraps named entry points of the package; each must exist.

``bench/spans.py`` replaces every ``(module, class, attribute)`` in its
``TARGETS`` list by looking the attribute up in the owner's ``__dict__``, so a
rename or a move into a base class would break the traced run.  This test
reads that list and checks each entry against the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    missing = []
    for mod_name, cls_name, attrs, _layer in _targets():
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = owner.__dict__.get(cls_name)
            if owner is None:
                missing.append(f"{mod_name}.{cls_name}")
                continue
        for attr in attrs:
            if attr not in owner.__dict__:
                missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
    assert not missing, f"traced entry points not found: {missing}"
