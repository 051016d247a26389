import ctypes
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ifcirc import POLARITIES, Network, example_model_path, load_network

settings.register_profile(
    "ifcirc", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ifcirc")


# Resistances/capacitances spanning the hardware-plausible range.  Durations
# are either exactly zero (slot skipping) or at least a microsecond: below
# that, 1 - exp(-dt/tau) is pure cancellation noise and no two float
# implementations agree, so relative comparisons are meaningless there.
resistances = st.floats(1e3, 1e6)
capacitances = st.floats(1e-8, 1e-5)
durations = st.one_of(st.just(0.0), st.floats(1e-6, 0.05))
voltages = st.floats(0.1, 10.0)
stimulus_values = st.floats(-0.5, 1.5)  # scheduler clamps to [0, 1]


def wiring(n_inputs, *neurons):
    """A (2, classes, n_inputs + 1) table: per neuron a {(line, polarity): ohms} dict, +inf elsewhere."""
    r = np.full((2, len(neurons), n_inputs + 1), np.inf)
    for k, synapses in enumerate(neurons):
        for (line, polarity), ohms in synapses.items():
            r[POLARITIES.index(polarity), k, line] = ohms
    return r


@st.composite
def networks(draw, n_classes=3):
    """A network drawn as its table: each entry +inf or a resistance, one synapse per neuron at least."""
    n_inputs = draw(st.integers(1, 3))
    shape = (2, n_classes, n_inputs + 1)
    r = draw(arrays(np.float64, shape, elements=st.one_of(st.just(np.inf), resistances)))
    for k in range(n_classes):
        if not np.isfinite(r[:, k]).any():
            r[0, k, 0] = draw(resistances)
    labels = [f"c{k}" for k in range(n_classes)]
    return Network(labels, r, draw(capacitances), supply_voltage=draw(voltages))


def exp_dispatch():
    """The SIMD targets numpy runs float64 exp and expm1 on, as ``"exp/expm1"``.

    Their last-ulp rounding moves the bytes of a few pins.  On x86-64 numpy 2.4 runs
    ``X86_V4/X86_V4`` on an AVX-512 CPU and ``X86_V3/baseline(X86_V2)`` under
    ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``.  aarch64 is unmeasured.
    """
    info = np.lib.introspect.opt_func_info(func_name="^(exp|expm1)$", signature="float64")
    return "/".join(info[name]["dd"]["current"] for name in ("exp", "expm1"))


def blas_core():
    """The kernel family numpy's bundled OpenBLAS runs, such as ``"SkylakeX"``.

    OpenBLAS picks it when it loads, from the CPU or from ``OPENBLAS_CORETYPE`` (``Zen``
    reports ``Haswell``, whose kernels it runs).  Its dot, matmul and solve kernels round
    differently, which moves trained-model bytes.  ``"unknown"`` where
    ``numpy.libs`` holds no OpenBLAS.
    """
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = (), ctypes.c_char_p
            return corename().decode()
    return "unknown"


def exp_and_blas():
    """The exp/expm1 dispatch and the OpenBLAS core, as ``"X86_V4/X86_V4 SkylakeX"``."""
    return f"{exp_dispatch()} {blas_core()}"


def assert_dispatch_digest(digests, digest, platform=exp_dispatch):
    """``digest`` is the pin ``digests`` holds for this process's ``platform()`` key."""
    key = platform()
    assert key in digests, f"no pin for platform {key}, which gave {digest}"
    assert digest == digests[key], f"platform {key} gave {digest}"


def rescaled(net, k):
    """``net`` with every resistance times k and its capacitance over k: same R·C."""
    return replace(net, resistances=net.resistances * k, capacitance=net.capacitance / k)


@pytest.fixture(scope="session")
def bundled_model():
    return load_network(example_model_path())


@pytest.fixture(scope="session")
def pruned_bundled_model(bundled_model):
    from ifcirc import prune

    return prune(bundled_model)
