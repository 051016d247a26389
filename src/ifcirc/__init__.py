"""Integrate-and-fire classifiers built from switched RC circuits.

Each output class is one neuron: a capacitor charged through excitatory
resistors and drained through inhibitory ones, with stimulation time per
input line proportional to the input value.  The membrane potential after
the full stimulation sequence is the class score.  The package covers the
whole loop: simulate, train the resistances by Levenberg–Marquardt, prune
dead synapses, snap values to a resistor catalog, and account for energy.
"""
from pathlib import Path

# each module's __all__ is what the package publishes; ifcirc.kernel stays a submodule
from .neuron import *
from .oracle import *
from .dataset import *
from .training import *
from .hardware import *

__version__ = "0.1.0"


def example_model_path() -> Path:
    """Path to the bundled dog-posture model (trained, pruned, quantized)."""
    return Path(__file__).parent / "models" / "dog_posture.json"
