"""Weight spaces of simple modules by intertwiner chains and exact ranks.

Enumerates a tableau class, builds its intertwiner-chain vectors, shows the
ladder-group symmetrization shrinking a basis, and assembles the full matrix
of weight-space dimensions for n = 5 -- the identity, matching the
transition matrix at q = 1.

Run:  python3 demos/weight_space_ranks.py
"""

from spechtmod.fock import evaluate_at_one, first_approximations
from spechtmod.partitions import ladder_decomposition, restricted_partitions
from spechtmod.ranks import gram_report, phi_chain_basis, weight_space_dims
from spechtmod.tableaux import ladder_class_of_shape


def header(text):
    print()
    print(text)
    print("-" * len(text))


def pstr(lam):
    return "[" + ",".join(str(a) for a in lam) + "]"


header("A tableau class: weight (3,2), shape (4,1), p = 3")
mu, tau = (3, 2), (4, 1)
data = ladder_decomposition(mu, 3)
print(f"  ladder residue word of {pstr(mu)}: "
      f"{list(data.ladder_residue_sequence.values)}")
print(f"  ladder group: intervals {data.ladder_group_intervals}, "
      f"order {data.ladder_group_order()}")
members = ladder_class_of_shape(mu, tau, 3)
for t in members:
    print(f"  member rows: {t.rows}")

header("Intertwiner-chain vectors for the class")
for t, vec in zip(members, phi_chain_basis(mu, tau, 3)):
    terms = {s.rows: str(c) for s, c in sorted(
        vec.coeffs.items(), key=lambda kv: kv[0].rows)}
    print(f"  chain to {t.rows}: {terms}")

header("Ladder-group symmetrization can shrink a basis")
for pair in (((3, 2), (4, 1)), ((2, 1, 1, 1), (2, 2, 1))):
    report = gram_report(*pair, 3)
    print(f"  weight {pstr(pair[0])}, shape {pstr(pair[1])}: "
          f"{report.basis_size_before_symmetrization} chain vectors -> "
          f"{report.basis_size} after symmetrization, rank {report.rank}")

header("Weight-space dimension matrix for n = 5, p = 3")
order = restricted_partitions(5, 3)
# one column {lam: dim} of nonzero dims per weight mu, from its A(mu) and
# one enumeration of its class
columns = [weight_space_dims(mu, 3, {
    tau: evaluate_at_one(c) for tau, c in a.terms.items()})
    for mu, a in first_approximations(order, 3).items()]
print(" " * 14 + "  ".join(pstr(mu).rjust(11) for mu in order))
for lam in order:
    print(pstr(lam).ljust(14)
          + "  ".join(str(column.get(lam, 0)).rjust(11) for column in columns))
print("  (rows: simple module, columns: weight; the identity matrix)")
