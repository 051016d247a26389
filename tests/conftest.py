import ctypes
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ifcirc import IFNeuron, Network, Synapse, example_model_path, load_network

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


@st.composite
def neurons(draw, max_inputs=3):
    n_inputs = draw(st.integers(1, max_inputs))
    cap = draw(capacitances)
    synapses = []
    for idx in range(n_inputs + 1):  # +1 so some synapses sit on the bias line
        for polarity in ("excitatory", "inhibitory"):
            if draw(st.booleans()):
                synapses.append(Synapse(idx, polarity, draw(resistances)))
    if not synapses:
        synapses.append(Synapse(0, "excitatory", draw(resistances)))
    return IFNeuron(label="unit", capacitance=cap, synapses=tuple(synapses)), n_inputs


@st.composite
def networks(draw, n_classes=3):
    n_inputs = draw(st.integers(1, 3))
    cap = draw(capacitances)
    neurons_ = []
    for ci in range(n_classes):
        synapses = []
        for idx in range(n_inputs + 1):
            for polarity in ("excitatory", "inhibitory"):
                if draw(st.booleans()):
                    synapses.append(Synapse(idx, polarity, draw(resistances)))
        if not synapses:
            synapses.append(Synapse(0, "excitatory", draw(resistances)))
        neurons_.append(IFNeuron(label=f"c{ci}", capacitance=cap, synapses=tuple(synapses)))
    v_in = draw(voltages)
    return Network(neurons=tuple(neurons_), n_inputs=n_inputs, supply_voltage=v_in)


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
    """``net`` with every resistance times k and every capacitance over k: same R·C."""
    neurons = tuple(
        replace(
            neuron,
            capacitance=neuron.capacitance / k,
            synapses=tuple(replace(s, resistance=s.resistance * k) for s in neuron.synapses),
        )
        for neuron in net.neurons
    )
    return replace(net, neurons=neurons)


def reversed_twin(net):
    """``net`` with each neuron's synapses listed in reverse order."""
    return replace(net, neurons=tuple(
        replace(neuron, synapses=neuron.synapses[::-1]) for neuron in net.neurons))


@pytest.fixture(scope="session")
def bundled_model():
    return load_network(example_model_path())


@pytest.fixture(scope="session")
def pruned_bundled_model(bundled_model):
    from ifcirc import prune

    return prune(bundled_model)
