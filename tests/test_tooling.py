"""The benchmark tracer patches evolveq by name; a rename must fail here."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("mod, path", traced_entries())
def test_traced_entry_resolves(mod, path):
    module = importlib.import_module(f"evolveq.{mod}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer patches methods in the class __dict__, not inherited ones
        raw = vars(getattr(module, cls_name))[attr]
        if path == "SlabPropagator.build":
            assert isinstance(raw, classmethod)
        else:
            assert callable(raw)
    else:
        assert callable(getattr(module, path))
