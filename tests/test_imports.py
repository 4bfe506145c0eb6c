"""What importing the package loads, and the record types that verify and generate build."""

import dataclasses
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cyclocert
from cyclocert import (
    ChainResult,
    ChainStatus,
    Outcome,
    Phase1Result,
    Phase1Status,
    Reason,
    RingContext,
    RingElement,
    Verdict,
    generate_certificate,
    make_context,
    one,
    verify,
)

SRC = Path(cyclocert.__file__).resolve().parents[1]
TRACING = SRC.parent / "perfbench" / "tracing.py"
# the modules that verify and generate run; bench and carmichael load on first use
CORE = ("numtheory", "ring", "chain", "certify", "certfile", "cli")


def run_fresh(code: str) -> str:
    """Standard output of code run in a new interpreter that imports the package from SRC."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", code]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout


def loaded(code: str) -> set[str]:
    """The cyclocert modules loaded after code runs in a new interpreter."""
    listing = "; import sys; print(*(m for m in sys.modules if m.startswith('cyclocert')))"
    return set(run_fresh(code + listing).split())


def test_cli_loads_only_the_core_modules():
    assert loaded("import cyclocert.cli") == {"cyclocert", *(f"cyclocert.{m}" for m in CORE)}


@pytest.mark.parametrize(
    "name,module", [("korselt_check", "carmichael"), ("run_bench", "bench")]
)
def test_lazy_export_resolves_and_loads_its_module(name, module):
    modules = loaded(f"import cyclocert; assert cyclocert.{name} is cyclocert.{module}.{name}")
    assert f"cyclocert.{module}" in modules


def test_star_import_in_a_fresh_interpreter_resolves_every_export():
    code = "ns = {}; exec('from cyclocert import *', ns); import cyclocert; "
    code += "print(*(n for n in cyclocert.__all__ if n not in ns))"
    assert run_fresh(code).split() == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'bench_report'"):
        getattr(cyclocert, "bench_report")


def test_tracer_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.BINDINGS:
        assert callable(getattr(getattr(cyclocert, module), name)), (module, name)


def test_certificate_is_still_a_dataclass():
    cert = generate_certificate(32, rng=random.Random(1))
    unit = one(make_context(cert.N, cert.p, cert.d))
    copy = dataclasses.replace(cert, w=unit)
    assert copy.w == unit and copy.N == cert.N and copy.q == cert.q
    assert verify(dataclasses.replace(cert, w=cert.w)).outcome is Outcome.PRIME


@pytest.mark.parametrize(
    "record,fields,defaults",  # every default is None
    [
        (RingContext(7, 3, 2, 57), "N p d phi_p_n", ""),
        (RingElement((1, 2, 3)), "coeffs", ""),
        (Verdict(Outcome.REJECT), "outcome reason witness", "reason witness"),
        (Phase1Result(Phase1Status.EXHAUSTED), "status w witness", "w witness"),
        (ChainResult(ChainStatus.REJECT_BOUND, 3), "status p N q k", "N q k"),
    ],
)
def test_records_keep_fields_defaults_hash_and_immutability(record, fields, defaults):
    cls = type(record)
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == dict.fromkeys(defaults.split())
    # a frozen dataclass hashed the tuple of its fields, as a NamedTuple does
    assert hash(record) == hash(tuple(record)) and record == cls(*record)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)


def test_repr_and_accepted_unchanged():
    assert repr(Verdict(Outcome.PRIME)) == (
        "Verdict(outcome=<Outcome.PRIME: 'PRIME'>, reason=None, witness=None)"
    )
    assert repr(Verdict(Outcome.COMPOSITE, Reason.ZERO_DIVISOR, witness=5)) == (
        "Verdict(outcome=<Outcome.COMPOSITE: 'COMPOSITE'>, "
        "reason=<Reason.ZERO_DIVISOR: 'ZERO_DIVISOR'>, witness=5)"
    )
    assert repr(RingElement((1, 2, 3))) == "RingElement(coeffs=(1, 2, 3))"
    assert ChainResult(ChainStatus.ACCEPTED, 3, 7, 19, 3).accepted
    assert not ChainResult(ChainStatus.REJECT_NO_SEED, 3).accepted
