"""Core time-series machinery: envelopes, transforms, normal forms, bounds."""

from .apca import APCA, apca_approximate, apca_dtw_lb, apca_euclidean_lb
from .envelope import (
    Envelope,
    envelope_distance,
    k_envelope,
    k_to_warping_width,
    warping_width_to_k,
)
from .envelope_transforms import (
    EnvelopeTransform,
    KeoghPAAEnvelopeTransform,
    NaiveEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from .lower_bounds import lb_envelope_transform, lb_keogh, lb_yi, tightness
from .normal_form import (
    DEFAULT_NORMAL_LENGTH,
    NormalForm,
    normalize,
    shift_normalize,
    utw_normal_form,
)
from .series import as_series, common_length, uniform_resample, upsample
from .transforms import (
    ChebyshevTransform,
    DFTTransform,
    HaarTransform,
    IdentityTransform,
    LinearTransform,
    PAATransform,
    RandomProjectionTransform,
    SVDTransform,
)

__all__ = [
    "APCA",
    "apca_approximate",
    "apca_dtw_lb",
    "apca_euclidean_lb",
    "Envelope",
    "envelope_distance",
    "k_envelope",
    "k_to_warping_width",
    "warping_width_to_k",
    "EnvelopeTransform",
    "KeoghPAAEnvelopeTransform",
    "NaiveEnvelopeTransform",
    "NewPAAEnvelopeTransform",
    "SignSplitEnvelopeTransform",
    "lb_envelope_transform",
    "lb_keogh",
    "lb_yi",
    "tightness",
    "DEFAULT_NORMAL_LENGTH",
    "NormalForm",
    "normalize",
    "shift_normalize",
    "utw_normal_form",
    "as_series",
    "common_length",
    "uniform_resample",
    "upsample",
    "ChebyshevTransform",
    "DFTTransform",
    "HaarTransform",
    "IdentityTransform",
    "LinearTransform",
    "PAATransform",
    "RandomProjectionTransform",
    "SVDTransform",
]
