"""Input checks that no other test reaches: each bad argument raises its own
ValueError, with its own message."""

import math

import numpy as np
import pytest

from matchrobust import (
    DecayFunction,
    EuclideanPlacement,
    ExtensionalProfile,
    HardnessFunction,
    MetricSpace,
    OrdinalProfile,
    RankBasedProfile,
    bourgain_embed,
    distinguishing_profile,
    enumerate_stable,
    measure_distortion,
    random_connected_space,
    sufficient_robustness_level,
    union_generating_space,
)
from matchrobust.seeding import rng_for

_PATH = MetricSpace(3, [(0, 1, 1.0), (1, 2, 1.0)])
_P2 = OrdinalProfile(2, ((0, 1), (1, 0)))
_P3 = OrdinalProfile(3, ((0, 1, 2),) * 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DecayFunction("linear").value(-1), "decay is defined for t >= 0"),
        (lambda: HardnessFunction("constant").value(0), r"n >= 1 required"),
        (lambda: EuclideanPlacement(np.zeros(3)), r"points must be a \(vertices, dim\) array"),
        (lambda: bourgain_embed(MetricSpace(1, [])), "need at least 2 vertices"),
        (
            lambda: measure_distortion(_PATH, EuclideanPlacement(np.zeros((2, 1)))),
            "placement does not cover all vertices",
        ),
        (lambda: RankBasedProfile(0, ()), r"n >= 1 required"),
        (lambda: RankBasedProfile(2, (-1.0, -2.0)).utilities(_P3), "size mismatch"),
        (lambda: ExtensionalProfile(0, {}), r"n >= 1 required"),
        (lambda: MetricSpace(0, []), r"vertex_count >= 1 required"),
        (lambda: MetricSpace(2, [(1, 1, 0.5)]), "positive self-loop on vertex 1"),
        (lambda: union_generating_space([]), "need at least one profile"),
        (lambda: random_connected_space(0, 1, rng_for(0)), r"vertices >= 1 required"),
        (lambda: OrdinalProfile(0, ()), r"profile needs n >= 1"),
        (lambda: enumerate_stable(_P2, _P3), "size mismatch"),
        (lambda: distinguishing_profile(_P2, _P3), "size mismatch"),
        (lambda: sufficient_robustness_level(0, 1.5), r"n >= 1 required"),
        (lambda: sufficient_robustness_level(3, math.nextafter(1.0, 0.0)), r"c must be >= 1"),
    ],
    ids=[
        "decay-negative-t",
        "hardness-n0",
        "placement-shape",
        "bourgain-one-vertex",
        "distortion-short-placement",
        "rank-profile-n0",
        "rank-utilities-size",
        "extensional-n0",
        "space-n0",
        "space-self-loop",
        "union-empty",
        "random-space-n0",
        "ordinal-n0",
        "enumerate-size",
        "distinguishing-size",
        "sufficient-level-n0",
        "sufficient-level-c-below-1",
    ],
)
def test_bad_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
