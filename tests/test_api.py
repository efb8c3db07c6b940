"""The package's public export list."""

import seqreorder


def test_every_export_resolves_once():
    names = seqreorder.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(seqreorder, name), name
