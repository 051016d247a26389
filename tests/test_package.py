"""The package's public names: each module's ``__all__``, re-exported."""
import os
import subprocess
import sys
from pathlib import Path

import ifcirc
from ifcirc import dataset, hardware, kernel, neuron, oracle, training

# Every name the package exported before it re-exported the module lists.
EXPORTED = {
    neuron: (
        "IFNeuron", "Network", "POLARITIES", "Slot", "StimulationSchedule", "Synapse",
        "build_schedule", "classify", "infer_batch", "infer_network", "load_network",
        "network_from_dict", "network_to_dict", "save_network",
    ),
    oracle: ("integrate_schedule",),
    dataset: (
        "CLASS_MEANS", "CLASSES", "DatasetConfig", "PostureSample", "generate", "read_csv",
        "split", "write_csv",
    ),
    training: (
        "TrainConfig", "TrainResult", "evaluate_accuracy", "nearest_centroid_accuracy",
        "prune", "train",
    ),
    hardware: (
        "DEFAULT_CATALOG", "EnergyReport", "MAX_GRID_POINTS", "ResistorCatalog", "ResponseMap",
        "energy_per_inference", "energy_report_to_dict", "max_inference_time",
        "perturb_readout", "quantize_network", "response_map", "round_resistance",
        "write_response_map_csv",
    ),
}


def test_package_keeps_every_name_it_exported():
    for module, names in EXPORTED.items():
        for name in names:
            assert getattr(ifcirc, name) is getattr(module, name), name
    assert callable(ifcirc.example_model_path)
    assert ifcirc.__version__ == "0.1.0"


def test_package_exports_each_module_list():
    for module in (neuron, oracle, dataset, training, hardware):
        for name in module.__all__:
            assert getattr(ifcirc, name) is getattr(module, name), name
    # the four names that were in a module list but missing from the package
    for name in ("write_loss_csv", "NeuronEnergy", "E12_MANTISSAS", "E24_MANTISSAS"):
        assert hasattr(ifcirc, name), name


def test_kernel_stays_a_submodule():
    assert ifcirc.kernel is kernel
    for name in kernel.__all__:
        assert not hasattr(ifcirc, name), name


def test_the_benchmark_finds_every_name_it_binds():
    # perfbench imports public names and looks up each traced layer's functions by module; a
    # name dropped from the package fails here, not only in the benchmark's own run.  The child
    # runs from the repo root, where perfbench is, on the same ifcirc as this suite.
    src = Path(ifcirc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = "import perfbench.workloads; from perfbench.tracing import bind; bind(None)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
