"""Interval posets of permutations, convex polygon dissections, and the
chord correspondence between them, with exhaustive verification tooling."""

from .perm import (NotAPermutation, Permutation, all_intervals,
                   has_sum_interval, interval_windows, is_block_wise_simple,
                   is_simple, parse_permutation)
from .poset import (ElementNotInPoset, FamilyVerdict, IntervalPoset,
                    canonical_key, children_histogram, format_interval,
                    hasse_children, hasse_edges, is_tree, key_of_family,
                    parse_poset_text, poset_of, validate_interval_family,
                    write_poset_text)
from .polygon import (CapExceeded, Dissection, DissectionClass,
                      all_diagonals, chords_cross, crossing_pairs,
                      empty_faces, enumerate_dissections,
                      faces_of_noncrossing, is_diagonally_framed,
                      is_noncrossing, parse_dissection_text, satisfies_class,
                      write_dissection_text)
from .bijection import ImageClassification, classify_image, phi, phi_inverse
from .render import dissection_to_svg, poset_to_dot
from .census import (CensusReport, CensusRow, Family, IdentityCheck,
                     MalformedLine, SequenceComparison, check_identities,
                     check_images, compare_counts, compare_with_bfile,
                     count_dissections, distinct_posets, load_bfile,
                     poset_census, realize, run_census)

__version__ = "0.1.0"
