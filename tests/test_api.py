"""The decided public API: the exact names of the package root, and the
names removed from the package, so that adding or removing one is a visible
decision."""

import doctest
import importlib
import pkgutil
import types

import spechtmod

PUBLIC = {
    "CanonicalBasisTable", "FockVector", "GramReport", "LaurentPoly",
    "ResidueSequence", "SeminormalVector", "StandardTableau",
    "VerificationReport", "all_partitions", "check_partition",
    "class_project", "conjecture_check", "consistency_check",
    "d_reduced_word", "divided_f", "dominates", "evaluate_at_one",
    "first_approximation", "first_approximations", "gamma", "gaussian",
    "gaussian_factorial", "gram_matrix", "gram_oracle_dimD", "gram_report",
    "inner_product", "invert_unitriangular", "is_p_restricted", "jm_action",
    "ladder_class_of_shape", "ladder_decomposition", "ladder_symmetrize",
    "llt_canonical", "m_matrix", "modp_rank", "nmat_at_one", "phi_action",
    "phi_chain_basis", "residue_sequence", "restricted_partitions",
    "row_reading_tableau", "sigma_action", "standard_tableau_count",
    "standard_tableaux", "validate_ladder_lengths",
}

# f_action is divided_f(i, 1, ...), bar is LaurentPoly.bar, dim_e_tilde_D is
# gram_report(...).rank and Rational is Fraction; node_residue is
# LadderData.residues' rule (b - 1) mod p; the rest live on as references in
# tests/oracles.py
REMOVED = ("f_action", "bar", "removable_nodes", "dim_e_tilde_D", "Rational",
           "tableau_class", "inversions", "swap_entries", "node_residue")


def test_package_root_exports_exactly_the_decided_names():
    names = {name for name, value in vars(spechtmod).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC and len(PUBLIC) == 45


def _modules():
    """Every module of the package but ``__main__``, which runs the CLI."""
    return [importlib.import_module(f"spechtmod.{info.name}")
            for info in pkgutil.iter_modules(spechtmod.__path__)
            if info.name != "__main__"]


def test_removed_names_are_defined_nowhere_in_the_package():
    modules = _modules()
    assert len(modules) == 7
    for module in [spechtmod, *modules]:
        assert not [name for name in REMOVED if hasattr(module, name)], module


def test_docstring_examples_hold():
    results = [doctest.testmod(module) for module in [spechtmod, *_modules()]]
    assert sum(r.failed for r in results) == 0
    # check_partition, restricted_partitions, all_partitions,
    # row_reading_tableau and canonical_word
    assert sum(r.attempted for r in results) == 5
