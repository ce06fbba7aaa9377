"""Every `nucaug.<module>.<name>` that README.md names in backticks exists."""

import importlib
import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_every_named_object_resolves():
    with open(README, encoding="utf-8") as fh:
        names = re.findall(r"`nucaug\.(\w+)\.(\w+)`", fh.read())
    assert names
    missing = [f"nucaug.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"nucaug.{module}"), name)]
    assert missing == []
