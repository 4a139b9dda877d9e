"""The package's public surface."""

import gkverify


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from gkverify import *`, not the import
    missing = [name for name in gkverify.__all__ if not hasattr(gkverify, name)]
    assert missing == []
    namespace = {}
    exec("from gkverify import *", namespace)
    assert set(gkverify.__all__) <= set(namespace)
