"""Exact-arithmetic canonical bases, seminormal forms, and mod-p
decomposition numbers for symmetric groups.

The package has two independent halves that meet in :mod:`spechtmod.verify`:
the combinatorial side (:mod:`spechtmod.partitions`, :mod:`spechtmod.tableaux`,
:mod:`spechtmod.fock`) computes canonical-basis transition matrices on the
q-Fock space, and the representation side (:mod:`spechtmod.seminormal`,
:mod:`spechtmod.ranks`) computes weight-space dimensions of simple modules by
exact Gram ranks.  ``conjecture_check`` confronts the two.
"""

from .partitions import (all_partitions, check_partition, dominates,
                         is_p_restricted, ladder_decomposition,
                         restricted_partitions, standard_tableau_count,
                         validate_ladder_lengths)
from .tableaux import (StandardTableau, ResidueSequence, d_reduced_word,
                       ladder_class_of_shape, residue_sequence,
                       row_reading_tableau, standard_tableaux)
from .fock import (CanonicalBasisTable, FockVector, LaurentPoly, divided_f,
                   evaluate_at_one, first_approximation, first_approximations,
                   gaussian, gaussian_factorial, invert_unitriangular,
                   llt_canonical, nmat_at_one)
from .seminormal import (SeminormalVector, class_project, gamma,
                         inner_product, jm_action, phi_action, sigma_action)
from .ranks import (GramReport, gram_matrix, gram_report, ladder_symmetrize,
                    modp_rank, phi_chain_basis)
from .verify import (VerificationReport, conjecture_check, consistency_check,
                     gram_oracle_dimD, m_matrix)

__version__ = "0.1.0"
