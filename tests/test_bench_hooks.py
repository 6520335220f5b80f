"""Every layer hook of the benchmark tracer names a module attribute that
exists, so a renamed or inlined layer fails here instead of dropping out of
a traced run."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_bench_hook_resolves():
    hooks = _load_spans().HOOKS
    assert hooks
    missing = [
        (module, attr)
        for _, module, attr, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, missing
