"""The package namespace."""
import relwalk


def test_every_export_resolves():
    missing = [name for name in relwalk.__all__ if not hasattr(relwalk, name)]
    assert missing == []
