"""The package surface: lazy submodules."""

import pytest

import qifsim


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qifsim import *", namespace)
    for name in qifsim.__all__:
        assert namespace[name] is getattr(qifsim, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'melt'"):
        qifsim.melt
