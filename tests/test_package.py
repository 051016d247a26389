"""The package's public names, each module's ``__all__`` re-exported, and what reaches its code."""
import ast
import inspect
import re
import runpy
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ifcirc
from ifcirc import dataset, hardware, kernel, neuron, oracle, training
from ifcirc.cli import main
from conftest import child_env

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
    code = "import perfbench.workloads; from perfbench.tracing import bind; bind(None)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
                          capture_output=True, text=True, env=child_env(PYTHONDONTWRITEBYTECODE="1"),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_builds_no_catalog():
    # a catalog parses its series parts the first time it snaps, not when ifcirc is imported
    code = ("import ifcirc; catalog = ifcirc.DEFAULT_CATALOG; assert 'parts' not in vars(catalog); "
            "assert ifcirc.round_resistance(215.0) == 200.0 and 'parts' in vars(catalog)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


_SEEDED_WORK = (
    "from ifcirc import DatasetConfig, TrainConfig, generate, split, train\n"
    "kept, _ = split(generate(DatasetConfig(n_per_class=20, seed=1)), 0.8, seed=1)\n"
    "train(kept, TrainConfig(epochs=5))\n"
    "for argv in ('gen-data --n 5 --holdout 0.2 --out d.csv --holdout-out h.csv',\n"
    "             'train --data d.csv --epochs 5 --out m.json', 'eval --model m.json --data h.csv',\n"
    "             'validate --model m.json --trials 1'):\n"
    "    assert main(argv.split()) == 0, argv\n"
)
_NOISY_READOUT = ("argv = 'infer --model bundled --pitch 0.1 --roll 0.2 --noise-sigma 0.01'\n"
                  "assert main(argv.split()) == 0\n")


@pytest.mark.parametrize("work, loaded", [(_SEEDED_WORK, False), (_NOISY_READOUT, True)],
                         ids=["seeded-draws", "readout-noise"])
def test_only_readout_noise_loads_numpy_random(tmp_path, work, loaded):
    # seeded draws come from ifcirc._pcg; noise is numpy's normal, from the caller's Generator
    code = f"import sys\nfrom ifcirc.cli import main\n{work}print('numpy.random' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


ROOT = Path(__file__).resolve().parents[1]


def readme_blocks(section, language):
    """The fenced ``language`` blocks of the README section headed ``section``."""
    text = (ROOT / "README.md").read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def run_readme_library_blocks():
    namespace = {}
    for block in readme_blocks("Quick start: library", "python"):
        exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def test_the_readme_library_quick_start_runs(capsys):
    # the README's examples call public names; run them, so a renamed name cannot leave them stale
    assert len(readme_blocks("Quick start: library", "python")) == 2
    namespace = run_readme_library_blocks()
    accuracy, label = capsys.readouterr().out.splitlines()
    assert float(accuracy) >= 0.95 and label == "sit"
    assert namespace["net"] == ifcirc.load_network(ifcirc.example_model_path())


# The readers of neuron objects outside neuron.py, by file and top-level name; None allows
# the whole file.  Everything else reads a network by its wiring table (tests through
# conftest.wired), so this is the list of code that deleting the view would touch.
VIEW_READERS = {
    # the RK4 oracle, and the validate command that feeds it
    "oracle.py": {"integrate_schedule"},
    "cli.py": {"_cmd_validate"},
    # the oracle's tests, and the release gate's oracle criterion
    "test_oracle.py": None,
    "test_acceptance.py": {"test_criterion_1_oracle_equivalence"},
    # the view's own tests, and the slot-by-slot fold they hold the closed form to
    "test_neuron.py": {
        "_fold", "test_closed_form_equals_fold", "test_wiring_table_holds_each_synapse_once",
        "test_equal_networks_compare_and_hash_equal_and_repr_no_table",
        "test_synapses_are_held_and_written_in_the_tables_order",
    },
}


def test_only_the_oracle_path_reads_neuron_objects():
    # outside neuron.py a network is its wiring table; only the readers above walk neuron
    # objects, in src/ and in tests/
    src = [path for path in Path(ifcirc.__file__).parent.glob("*.py") if path.name != "neuron.py"]
    reads, stray = set(), []
    for path in sorted(src) + sorted(Path(__file__).parent.glob("*.py")):
        allowed = VIEW_READERS.get(path.name, set())
        for top in ast.parse(path.read_text()).body:
            name = None if allowed is None else getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("neurons", "synapses", "synapse_map"):
                    if allowed is None or name in allowed:
                        reads.add((path.name, name))
                    else:
                        stray.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert stray == []
    # the scan sees the reads it allows
    assert reads == {(file, name) for file, names in VIEW_READERS.items() for name in names or [None]}


def test_only_the_network_and_build_schedule_build_records():
    # the four records check nothing: Network.__post_init__ writes the neurons from the table
    # it has checked, and build_schedule the slots from a clamped duration row.  A record
    # named as a value anywhere else in src/ (called, passed to map, or read as an attribute)
    # would go unchecked.
    records = ("Synapse", "IFNeuron", "Slot", "StimulationSchedule")
    builds = set()
    for path in sorted(Path(ifcirc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        annotations = set()  # a type annotation names a record and builds none
        for node in ast.walk(tree):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                annotations.update(map(id, ast.walk(annotation)) if annotation else ())

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{where}.{child.name}"
                name = getattr(child, "id", getattr(child, "attr", None))  # a Name or an Attribute
                if name in records and id(child) not in annotations:
                    builds.add((inner, name))
                visit(child, inner)

        visit(tree, path.stem)
    assert builds == {  # the scan sees the builds it allows
        ("neuron.Network.__post_init__", "IFNeuron"), ("neuron.Network.__post_init__", "Synapse"),
        ("neuron.build_schedule", "Slot"), ("neuron.build_schedule", "StimulationSchedule"),
    }


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


def test_no_library_test_catches_a_bare_value_error():
    # alone, pytest.raises(ValueError) passes on any ValueError, numpy's or an earlier check's:
    # a refusal is a row of LIBRARY_REFUSALS (test_refusals.py), or names its message
    bare = []
    for name in ("dataset", "hardware", "neuron", "oracle", "training", "kernel", "pcg"):
        tree = ast.parse((ROOT / "tests" / f"test_{name}.py").read_text())
        bare += [f"test_{name}.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func) == "pytest.raises" and node.args[:1]
                 and ast.unparse(node.args[0]) == "ValueError"
                 and "match" not in [keyword.arg for keyword in node.keywords]]
    assert bare == []


# src/ functions that nothing below calls, each kept for a reason
UNREACHED = {
    "hardware.round_resistance":
        "public: the README and acceptance criterion 7 snap a single resistance with it",
    "hardware.ResponseMap.__getitem__":
        "perfbench's Batch._check_map indexes a response map; it goes with a benchmark change",
}


def src_functions():
    """Every function and method in src/ifcirc, as {(file, first line): qualified name}.

    Lambdas, comprehensions and generator expressions are left out, and so are class
    bodies, which run at import.
    """
    found = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[path, const.co_firstlineno] = prefix + const.co_name
                walk(const, path, f"{prefix}{const.co_name}.")

    for path in Path(ifcirc.__file__).resolve().parent.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), str(path), f"{path.stem}.")
    return found


def test_every_src_function_is_reached(tmp_path, monkeypatch, capsys):
    # code that only its own tests call should go; the README's flows and the two scripts
    # must reach every src/ function but the few kept on purpose
    monkeypatch.chdir(tmp_path)
    flow = readme_blocks("Quick start: CLI", "sh")[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in flow.splitlines()]
    assert commands[-1][0] == "validate" and commands[-1][-2:] == ["--trials", "100"]
    commands[-1][-1] = "2"
    scripts = [("run_experiment.py", "--out-dir", "run"), ("sweep_seeds.py", "--seeds", "1")]
    called, previous = set(), sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        run_readme_library_blocks()
        codes = [main(argv) for argv in commands]
        for name, *argv in scripts:
            monkeypatch.setattr(sys, "argv", [name, *argv])
            runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(commands)
    functions = src_functions()
    for code in called:
        functions.pop((str(Path(code.co_filename).resolve()), code.co_firstlineno), None)
    assert sorted(functions.values()) == sorted(UNREACHED)


def test_a_failing_property_test_is_one_failure(tmp_path):
    # pyproject.toml turns warnings into errors; a warning raised inside hypothesis's
    # failure report must not end the run in INTERNALERROR before the next test runs
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
