"""The package's public names: each module's ``__all__``, re-exported."""
import ast
import os
import re
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


def test_the_readme_library_quick_start_runs(capsys):
    # the README's examples call public names; run them, so a renamed name cannot leave them stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Quick start: library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    accuracy, label = capsys.readouterr().out.splitlines()
    assert float(accuracy) >= 0.95 and label == "sit"
    assert namespace["net"] == ifcirc.load_network(ifcirc.example_model_path())


def test_only_the_oracle_path_reads_neuron_objects():
    # outside neuron.py a network is its wiring table; the RK4 oracle and the validate
    # command that feeds it still walk neuron objects
    oracle_path = {("oracle.py", "integrate_schedule"), ("cli.py", "_cmd_validate")}
    reads, stray = set(), []
    for path in sorted(Path(ifcirc.__file__).parent.glob("*.py")):
        if path.name == "neuron.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("neurons", "synapses", "synapse_map"):
                    where = (path.name, getattr(top, "name", None))
                    if where in oracle_path:
                        reads.add(where)
                    else:
                        stray.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert stray == []
    assert reads == oracle_path  # the scan sees the reads it allows


def test_only_main_reads_the_cli_inputs():
    # main loads the model and the CSV once and hands them to the subcommand
    tree = ast.parse((Path(ifcirc.__file__).parent / "cli.py").read_text())
    calls = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("load_network", "read_csv"):
                    calls.append(f"{getattr(top, 'name', None)}:{node.lineno} {name}")
    assert [call.split(":")[0] for call in calls] == ["main", "main"], calls
