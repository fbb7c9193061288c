"""Package facade tests."""

import re
from pathlib import Path

import etcontrol

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_exports_resolve():
    for name in etcontrol.__all__:
        assert hasattr(etcontrol, name), name


def test_readme_imports_are_exported():
    text = README.read_text(encoding="utf-8")
    names = [name.strip()
             for line in re.findall(r"^from etcontrol import (.+)$", text, re.M)
             for name in line.split(",")]
    assert names
    for name in names:
        assert name in etcontrol.__all__, name


def test_version_is_a_string():
    assert isinstance(etcontrol.__version__, str)
    assert etcontrol.__version__.count(".") == 2
