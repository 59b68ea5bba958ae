"""Every name the traced benchmark patches still exists.

`perfbench/spans.py` lists in `TRACED` the (module, attribute) pairs it
wraps, "Class.method" for a method.  A renamed or deleted function would
otherwise surface only when a traced benchmark run fails to install.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module, attr, _span in traced:
        owner = importlib.import_module("tverlab." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
