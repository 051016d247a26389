"""Integrate-and-fire classifiers built from switched RC circuits.

Each output class is one neuron: a capacitor charged through excitatory
resistors and drained through inhibitory ones, with stimulation time per
input line proportional to the input value.  The membrane potential after
the full stimulation sequence is the class score.  The package covers the
whole loop: simulate, train the resistances by Levenberg–Marquardt, prune
dead synapses, snap values to a resistor catalog, and account for energy.
"""
from pathlib import Path

from .neuron import (
    IFNeuron,
    Network,
    Polarity,
    Slot,
    StimulationSchedule,
    Synapse,
    build_schedule,
    classify,
    infer_batch,
    infer_network,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from .oracle import integrate_schedule
from .dataset import (
    CLASS_MEANS,
    CLASSES,
    DatasetConfig,
    PostureSample,
    generate,
    read_csv,
    split,
    write_csv,
)
from .training import (
    TrainConfig,
    TrainResult,
    evaluate_accuracy,
    nearest_centroid_accuracy,
    prune,
    train,
)
from .hardware import (
    DEFAULT_CATALOG,
    EnergyReport,
    MAX_GRID_POINTS,
    ResistorCatalog,
    ResponseMap,
    energy_per_inference,
    energy_report_to_dict,
    max_inference_time,
    perturb_readout,
    quantize_network,
    response_map,
    round_resistance,
    write_response_map_csv,
)

__version__ = "0.1.0"


def example_model_path() -> Path:
    """Path to the bundled dog-posture model (trained, pruned, quantized)."""
    return Path(__file__).parent / "models" / "dog_posture.json"
