"""Edit distance and local alignment on symbol sequences.

Shows the Levenshtein kernels and how repeated subsequences between two
pseudo-transcriptions become candidate term segments.
"""

from termforge.seqmatch import (AlignScoring, levenshtein, local_align,
                                normalized_levenshtein)

a = (7, 1, 2, 3, 4, 9, 9)
b = (8, 8, 1, 2, 3, 4, 5)

print("a =", a)
print("b =", b)
print("levenshtein(a, b) =", levenshtein(a, b))
print("normalized        =", round(normalized_levenshtein(a, b), 3))

# Smith-Waterman weights are integers; the fill computes in the narrowest
# integer type that holds the scores (int8 here)
scoring = AlignScoring(match_score=1, mismatch_penalty=-1, gap_penalty=-1,
                       min_align_score=3.0, min_length=3)
for span_a, span_b, score in local_align(a, b, scoring):
    print(f"\nlocal alignment score {score}:")
    print("  a", span_a, "->", a[span_a[0]:span_a[1]])
    print("  b", span_b, "->", b[span_b[0]:span_b[1]])

# a sequence aligned against itself finds internal repetition; the main
# diagonal is banned so the trivial identity match is excluded
word = (1, 2, 3, 4)
seq = (9,) + word + (8, 7) + word + (6,)
print("\nself-alignment of", seq)
for span_a, span_b, score in local_align(seq, seq, scoring, self_pair=True):
    print(f"  {span_a} matches {span_b} with score {score}")
