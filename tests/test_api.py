import importlib
import typing

import pytest

import ihskit

ROOT_API = sorted([
    "Unconstrained", "L1Ball", "NuclearBall", "Simplex", "Box",
    "LsProblem", "IhsConfig", "SketchSpec", "SolverControls", "IhsReport",
    "solve_exact", "classical_sketch_solve", "hessian_sketch_solve", "ihs_solve",
    "recommend_sketch_size", "recommend_iterations",
])

# names only their own modules export, with the module that defines each
MODULE_ONLY = {
    "ConstraintSet": "constraints", "contains": "constraints", "project": "constraints",
    "ExperimentRow": "experiments", "gen_lowrank": "experiments",
    "gen_sparse": "experiments", "gen_unconstrained": "experiments",
    "run_experiment": "experiments",
    "contraction_certificates_unconstrained": "ihs",
    "SvdResult": "linalg", "estimate_opnorm_sq": "linalg", "fwht_normalized": "linalg",
    "solve_psd": "linalg", "thin_svd": "linalg",
    "SketchOperator": "sketch", "alpha_balance": "sketch", "build_sketch": "sketch",
    "explicit_sketch": "sketch", "identity_sketch": "sketch", "leverage_scores": "sketch",
    "verify_projection_condition": "sketch",
    "SketchedQuadratic": "subsolver", "SubsolveResult": "subsolver",
    "solve_constrained": "subsolver",
}


def test_root_exports_the_solver_api():
    assert sorted(ihskit.__all__) == ROOT_API
    for name in ROOT_API:
        obj = getattr(ihskit, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_other_names_live_in_their_modules_only(name):
    assert len(MODULE_ONLY) == 24
    assert not hasattr(ihskit, name)
    module = importlib.import_module(f"ihskit.{MODULE_ONLY[name]}")
    obj = getattr(module, name)
    if name == "ConstraintSet":  # a type alias: the union of the root's five sets
        assert typing.get_args(obj) == (ihskit.Unconstrained, ihskit.L1Ball,
                                        ihskit.NuclearBall, ihskit.Simplex, ihskit.Box)
    else:  # defined there, not re-exported from elsewhere
        assert obj.__module__ == module.__name__ and obj.__name__ == name
