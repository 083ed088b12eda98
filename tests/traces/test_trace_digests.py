"""The generator's bytes, pinned.

The determinism tests elsewhere check that the generator agrees with
itself, which a change to the stream passes on both sides.  These pin
the sha256 of the packed ``.sctr`` output of every preset, so any change
to what the generator or the writer emits fails here.

Like ``bench/expected.json``, the digests depend on numpy's PCG64
streams (``Generator.random``, ``exponential``, ``permutation`` and
``pareto``); a numpy release that changes one of them changes the
digests without any change here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.traces.binary import pack_trace
from repro.traces.synthetic import STREAM_BLOCK_SIZE, iter_requests
from repro.traces.workloads import pack_workload, workload_config

#: The numpy release the digests below were recorded with.
RECORDED_WITH_NUMPY = "2.4.6"

PRESET_DIGESTS = {
    "dec": "78e3aa617242cc3930fdaea7066b2978637a617ff7677fe0bf149f9e3af66347",
    "ucb": "5ed7b2fa7d3dee38f1af9891577118f61bbb8c374b51b602b0af8b344c4787bf",
    "upisa": "477cd6c48be0ef2de321cdb9497af23482e59b9b214ca5781ad891cfa47299be",
    "questnet": (
        "7af02daf59c52a1e5f7f62b2e15ccee7a00476929b2fe13936dc11ae26ec2694"
    ),
    "nlanr": "384527a31a11f5ed8c372b8048456ea293ba986a059b275d41092a923ea406ad",
}
PRESET_SCALE = 0.1

#: ``pack_workload("dec", seed=1, num_requests=20_000)``: the benchmark
#: replay's workload, cut short.
DEC_SEED1_DIGEST = (
    "b18756eeb0c5e9d14bcdaadc782ea5cfc7f54f4b8869001481de262f57b78bf5"
)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mismatch(what: str) -> str:
    import numpy

    return (
        f"{what}: packed bytes changed.  The digests were recorded with "
        f"numpy {RECORDED_WITH_NUMPY}; this is numpy {numpy.__version__}."
    )


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_bytes_pinned(tmp_path, name):
    path = tmp_path / f"{name}.sctr"
    pack_workload(name, path, scale=PRESET_SCALE)
    assert sha256(path) == PRESET_DIGESTS[name], mismatch(
        f"{name} at scale {PRESET_SCALE}"
    )


@pytest.mark.parametrize("block_size", [1, 7, STREAM_BLOCK_SIZE])
def test_dec_seed1_bytes_pinned_at_any_block_size(tmp_path, block_size):
    config, _groups = workload_config("dec", seed=1, num_requests=20_000)
    path = tmp_path / "dec.sctr"
    pack_trace(
        iter_requests(config, block_size=block_size), path, name=config.name
    )
    assert sha256(path) == DEC_SEED1_DIGEST, mismatch(
        f"dec seed 1, block_size={block_size}"
    )
