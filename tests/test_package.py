"""The package surface: lazy submodules and the detector config re-export."""

import pytest

import qifsim
from qifsim import detection, scenario


def test_detector_config_is_reexported_by_detection():
    assert detection.DetectorModel is scenario.DetectorModel
    assert detection.ScaWindow is scenario.ScaWindow
    assert detection.FWHM_TO_SIGMA is scenario.FWHM_TO_SIGMA
    assert {"DetectorModel", "ScaWindow", "FWHM_TO_SIGMA"} <= set(detection.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qifsim import *", namespace)
    for name in qifsim.__all__:
        assert namespace[name] is getattr(qifsim, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'melt'"):
        qifsim.melt
