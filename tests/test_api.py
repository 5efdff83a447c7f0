"""The package's public names: every entry of `mexp.__all__` resolves, so a
name left there after its definition is gone fails here, not in a caller."""

import mexp


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from mexp import *", namespace)  # AttributeError on a stale entry
    assert len(set(mexp.__all__)) == len(mexp.__all__)
    for name in mexp.__all__:
        assert namespace[name] is getattr(mexp, name)
