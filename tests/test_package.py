"""The public surface of the package."""

import flowcast


def test_every_exported_name_resolves_once():
    names = flowcast.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(flowcast, n)] == []
