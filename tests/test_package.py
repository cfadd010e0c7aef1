"""The package namespace."""

import srdetect


def test_all_names_resolve_and_are_unique():
    assert len(set(srdetect.__all__)) == len(srdetect.__all__)
    for name in srdetect.__all__:
        assert getattr(srdetect, name) is not None
