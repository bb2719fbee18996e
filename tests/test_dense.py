"""The dense layer's split from the runtime: ``hqis.dense`` owns the
StateVector oracle, no CLI path loads it, and the names that moved there
keep their old import paths, served by the very objects in ``hqis.dense``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hqis
from hqis import adversary, channel, dense, protocol, qstate

# The names that moved to hqis.dense, by the module that still serves them.
MOVED = {
    qstate: [
        "StateVector", "_check_cap", "_check_qubit", "_check_unitary", "_contract", "basis_state",
        "apply_gate", "tensor", "permute_qubits", "project", "bell_project", "reduced_density",
        "I", "X", "Y", "IY", "Z", "H", "_BASIS_VECTORS", "_BELL_VECTORS",
    ],
    channel: ["_dense", "make_channel", "make_standard_form", "make_fake_channel",
              "compose_with_secret"],
    adversary: ["build_scenario_state"],
    protocol: ["agent_marginal", "TrialResult", "_HelperBits", "run_recovery", "iter_branches",
               "enumerate_branches"],
}
SERVED = [(module, name) for module, names in MOVED.items() for name in names]

# Runs in each mode and grade, with random and explicit secrets, the tables,
# and an attack in each scenario: none of them loads numpy.
CLI_ARGVS = [
    ["run", "--m", "5", "--n", "6", "--designee", "charlie:3", "--trials", "20"],
    ["run", "--m", "2", "--n", "3", "--designee", "bob:2", "--charlie-star", "1",
     "--mode", "enumerate"],
    ["run", "--m", "2", "--n", "3", "--designee", "bob:1", "--charlie-star", "2",
     "--trials", "5", "--secret", "-0.6,0,0,-0.8"],
    ["run", "--m", "2", "--n", "3", "--designee", "charlie:1", "--mode", "enumerate",
     "--secret", "0.6,0,0.8,0"],
    ["tables"],
    ["attack", "--m", "5", "--n", "6", "--scenario", "honest"],
    ["attack", "--m", "5", "--n", "6", "--scenario", "intercept-resend"],
]


def _child_env():
    env = {key: value for key, value in os.environ.items() if key != "HQIS_MAX_QUBITS"}
    env["PYTHONPATH"] = str(Path(hqis.__file__).resolve().parents[1])
    return env


def test_no_cli_path_loads_the_dense_module():
    script = (
        "import contextlib, io, sys\n"
        "import hqis.cli\n"
        "assert 'hqis.dense' not in sys.modules, 'importing hqis.cli loaded hqis.dense'\n"
        "assert 'hqis.binomial' not in sys.modules, 'importing hqis.cli loaded hqis.binomial'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {CLI_ARGVS!r}:\n"
        "        assert hqis.cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'a CLI path loaded numpy'\n"
        "assert 'hqis.dense' not in sys.modules, 'a CLI path loaded hqis.dense'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # `python -m hqis.cli` processes: -X importtime lists every module each imports.
    for argv in (CLI_ARGVS[0], CLI_ARGVS[1], ["tables"],
                 ["attack", "--scenario", "intercept-resend", "--m", "5", "--n", "6"]):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hqis.cli", *argv],
                              env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "numpy" not in proc.stderr, argv
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "dataclasses" not in imported, argv
        # Only a run that writes to --output sets signal handlers.
        assert "signal" not in imported, argv
        # The run and the tables read the protocol; the check never does.
        assert ("hqis.protocol" in imported) == (argv[0] != "attack"), argv
        # The check's module loads for the check alone.
        assert ("hqis.adversary" in imported) == (argv[0] == "attack"), argv


def test_the_package_serves_its_modules_after_importing_the_cli():
    """``import hqis.cli`` need not load every module; ``hqis.<module>`` still
    reaches each, as a caller holding only the package expects."""
    script = (
        "import sys\n"
        "import hqis, hqis.cli\n"
        "assert 'hqis.protocol' not in sys.modules, 'importing hqis.cli loaded hqis.protocol'\n"
        "for name in ('qstate', 'channel', 'protocol', 'adversary', 'dense', 'cli'):\n"
        "    assert getattr(hqis, name) is sys.modules['hqis.' + name], name\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_package_export_resolves():
    namespace = {}
    exec("from hqis import *", namespace)
    for name in hqis.__all__:
        assert namespace[name] is getattr(hqis, name)


def test_dense_package_exports_are_the_dense_objects():
    for name in ("StateVector", "apply_gate", "make_channel", "build_scenario_state"):
        assert getattr(hqis, name) is getattr(dense, name)


@pytest.mark.parametrize("module, name", SERVED, ids=lambda x: getattr(x, "__name__", x))
def test_a_moved_name_is_served_not_copied(module, name):
    moved = getattr(dense, name)
    assert getattr(module, name) is moved
    assert name not in vars(module)
    # Functions and classes name the module that defines them; arrays and dicts do not.
    assert getattr(moved, "__module__", "hqis.dense") == "hqis.dense"


@pytest.mark.parametrize("module", [hqis, qstate, channel, adversary, protocol],
                         ids=lambda m: m.__name__)
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute"):
        module.no_such_name
    assert not hasattr(module, "_dense_no_such_name")


def test_a_hook_serves_only_the_names_that_left_its_module():
    with pytest.raises(AttributeError):
        qstate.make_channel
    with pytest.raises(AttributeError):
        channel.StateVector
    with pytest.raises(AttributeError):
        adversary.tensor
    with pytest.raises(AttributeError):
        protocol.StateVector
