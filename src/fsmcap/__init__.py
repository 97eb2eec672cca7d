"""Exact probabilistic-automaton gadgets and finite-state channel capacity
experiments."""

__version__ = "0.1.0"

from .pfa import (BudgetError, Pfa, PfaError, SearchResult, brute_force_value,
                  emptiness_semidecide, evolve, frac, gamma, make_pfa,
                  reduce_extended_word, validate_pfa, value)
from .gadgets import (GadgetError, SigmaCode, SigmaError, build_B_p, build_C_p,
                      build_D_Ay, build_D_xy, build_family_member, sigma_decode,
                      sigma_encode)
from .witness import (ClosedFormMismatch, WitnessError, WitnessReport,
                      c_epsilon, solve_b, synthesize_word, synthesize_words,
                      witness_lengths, zeta_tail_bound)
from .fsmc import Fsmc, FsmcError, build_V, sample, validate_fsmc
from .capacity import (BaResult, BlockChannel, BracketBudget, CapacityBracket,
                       CapacityError, ControlSchedule, DiscreteChannel,
                       achievable_rate, blahut_arimoto, bsc, capacity_bracket,
                       converse_check, entropy, induced_block_channel,
                       spectrum_concentration_demo, spectrum_concentration_demos,
                       stability_schedule)
