"""Suite-wide fixtures."""

import sys

import pytest
from helpers import assert_dd_zero


@pytest.fixture(autouse=True)
def signed_rows(monkeypatch):
    """Hand every row set ``homology._signed_rows`` makes during a test to
    the d o d = 0 oracle, on each ``multinerve`` module that binds the
    builder.  The fixture is the wrapper; its ``sign`` is the builder it
    calls, which a test may replace."""
    from multinerve import homology
    real = homology._signed_rows

    def checked(faces):
        rows = checked.sign(faces)
        assert_dd_zero(rows)
        return rows

    checked.sign = real
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "multinerve"
                and getattr(module, "_signed_rows", None) is real):
            monkeypatch.setattr(module, "_signed_rows", checked)
    return checked
