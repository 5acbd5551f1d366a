"""The package namespace, loaded on first access, and the contracts of the
record types (tuples with named fields)."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import extforms
from extforms.algebra import Vector, basis_vector
from extforms.dsl import FormSource, parse_form_file
from extforms.subspace import Subspace, adapted_cobase, decompose

ALL = [
    "AdaptedFrame", "Decomposition", "DiffForm", "DslError", "ExtForm", "FormFile",
    "FormSource", "KernelProfile", "LambdaMatrix", "ScalarExpr", "Subspace", "Vector",
    "adapted_cobase", "algebra", "alpha", "annihilator", "basis_vector",
    "classify_theorem_sets", "constant_form", "construct_kernel_element",
    "cosymplectic_check", "covector", "decompose", "dsl", "eval_at", "evaluate",
    "example_catalog", "exterior_derivative", "extract_derivative", "frobenius_residual",
    "interior", "interior_division", "iterated_interior", "kernel2", "kernel_main_profile",
    "lambda_matrix", "lambda_report", "lee_solve", "lee_verify", "linalg",
    "load_form_file", "main_part", "make_form", "pairing", "parse_form", "parse_form_file",
    "print_form", "print_scalar", "randgen", "rank2", "rank2_pair_kernel", "rank_at",
    "scalar_of", "solve_wedge", "span", "subspace", "symbolic", "wedge", "wedge_all",
    "wedge_d", "wedge_d_all", "wedge_solver",
]
LAYERS = {"algebra", "dsl", "linalg", "randgen", "subspace", "symbolic", "wedge_solver"}
# the modules bench/tracer.py wraps, each read as an attribute of the package
TRACED_MODULES = ("algebra", "linalg", "subspace", "wedge_solver", "symbolic", "dsl",
                  "randgen", "cli")


def run_fresh(script: str) -> str:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=root, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestNamespace:
    def test_all_names_in_order(self):
        assert extforms.__all__ == ALL

    def test_names_resolve_to_their_home_objects(self):
        for name in ALL:
            obj = getattr(extforms, name)
            if name in LAYERS:
                assert obj is sys.modules[f"extforms.{name}"]
            else:
                home = sys.modules[obj.__module__]
                assert home.__name__.startswith("extforms.") and getattr(home, name) is obj

    def test_bare_import_loads_no_layer(self):
        script = ("import sys, extforms\n"
                  "print(sorted(m for m in sys.modules if m.startswith('extforms.')))\n")
        assert run_fresh(script) == "[]"

    def test_every_traced_module_is_an_attribute(self):
        script = ("import extforms\n"
                  f"mods = [getattr(extforms, m) for m in {TRACED_MODULES!r}]\n"
                  "print(' '.join(m.__name__ for m in mods))\n")
        assert run_fresh(script).split() == [f"extforms.{m}" for m in TRACED_MODULES]

    def test_star_import_binds_every_name(self):
        ns = {}
        exec("from extforms import *", ns)
        assert set(ALL) <= set(ns)
        assert all(ns[name] is getattr(extforms, name) for name in ALL)

    def test_dir_lists_every_name(self):
        assert set(ALL) <= set(dir(extforms))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            extforms.no_such_name
        assert not hasattr(extforms, "no_such_name")


def e(i, n):
    return basis_vector(i, n)


class TestRecords:
    def test_vector_component_count(self):
        with pytest.raises(ValueError, match="component count"):
            Vector(2, (1,))

    def test_vector_is_one_based(self):
        v = Vector(3, (1, 2, 3))
        assert v[1] == 1 and v[3] == 3 and v.components == (1, 2, 3)

    def test_equal_vectors_hash_alike(self):
        a, b = Vector(2, (1, 2)), Vector(2, (Fraction(1), Fraction(2)))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("dim, basis, message", [
        (3, (Vector(2, (1, 0)),), "dimension mismatch"),
        (2, (Vector(2, (1, 0)), Vector(2, (0, 1))), "must be proper"),
        (3, (Vector(3, (1, 0, 0)), Vector(3, (2, 0, 0))), "linearly dependent"),
    ], ids=["dimension", "proper", "dependent"])
    def test_subspace_faults(self, dim, basis, message):
        with pytest.raises(ValueError, match=message):
            Subspace(dim, basis)

    def test_of_independent_skips_the_rank_check(self):
        basis = (e(1, 3), e(1, 3))
        sub = Subspace.of_independent(3, basis)
        assert sub.dim_ambient == 3 and sub.basis is basis and sub.dim == 2

    def test_subspace_takes_any_iterable(self):
        sub = Subspace(3, [e(1, 3)])
        assert sub.basis == (e(1, 3),) and sub == Subspace(3, (e(1, 3),))

    def test_fields_are_read_only(self):
        c = Subspace(3, (e(1, 3),))
        frame = adapted_cobase(c)
        records = {
            "dim": Vector(2, (1, 2)),
            "basis": c,
            "covectors": frame,
            "parts": decompose(frame.covectors[0], frame),
            "body": FormSource(("x",), "dx"),
            "forms": parse_form_file("coords: x\na = dx\n"),
        }
        for field, record in records.items():
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_form_file_looks_up_by_name(self):
        ff = parse_form_file("coords: x\na = dx\n")
        assert ff["a"] is ff.forms["a"]
