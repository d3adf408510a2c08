"""Young-diagram primitives.

A partition mu is the tuple of its row lengths, positive and weakly
decreasing, with () the empty partition; its column count is mu[0] (0 if
empty).  The box set is {(i, j) : 1 <= i <= mu[j-1]} with i the column
index and j the row index, both 1-based.  The color of box (i, j) in an
a-colored diagram is a - j + 1 reduced mod ell and depends only on the row.
"""

from .series import Series, canonical_space


def col_heights(mu):
    """Tuple of column heights (the conjugate partition), read from the
    bottom row up: the columns a row adds past the rows below it have
    that row's index as their height."""
    heights = []
    for j in range(len(mu), 0, -1):
        heights += [j] * (mu[j - 1] - len(heights))
    return tuple(heights)


def boxes(mu):
    """The boxes (i, j) of mu, row by row."""
    for j, r in enumerate(mu, start=1):
        for i in range(1, r + 1):
            yield (i, j)


def _descending(n, maxpart):
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n):
    """All partitions of n, each once, in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return list(_descending(n, n))


def colored_counts(mu, a, ell):
    """Box counts per color b = (a - j + 1) mod ell; entries sum to |mu|."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    counts = [0] * ell
    for j, r in enumerate(mu, start=1):
        counts[(a - j + 1) % ell] += r
    return tuple(counts)


def _check_residue(c, ell):
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if not -ell + 1 <= c <= ell - 1:
        raise ValueError("residue c=%d out of range for ell=%d" % (c, ell))


def count_N1_geq(mu, c, ell):
    """Boxes (i, j) whose column height h(i) has h(i) - j = c mod ell."""
    _check_residue(c, ell)
    heights = col_heights(mu)
    return sum(1 for i, j in boxes(mu) if (heights[i - 1] - j - c) % ell == 0)


def count_N1_gt(mu, c, ell):
    """Same as count_N1_geq but restricted to h(i) - j > 0."""
    _check_residue(c, ell)
    heights = col_heights(mu)
    return sum(1 for i, j in boxes(mu)
               if heights[i - 1] - j > 0 and (heights[i - 1] - j - c) % ell == 0)


def count_N2_geq(mu, c, ell):
    """Boxes (i, j) with j - 1 congruent to c mod ell."""
    _check_residue(c, ell)
    return sum(r for j, r in enumerate(mu, start=1) if (j - 1 - c) % ell == 0)


def box_count_table(mu, ell):
    """(N1>=, N1>, N2>=) of mu, each a list indexed by c % ell, from one pass
    over the rows: N1 counts the legs h(i) - j of the boxes and N2 adds each
    row length at its row index j - 1, as the count_* functions do."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    heights = col_heights(mu)
    n1_geq, n1_gt, n2_geq = [0] * ell, [0] * ell, [0] * ell
    for j, r in enumerate(mu, start=1):
        n2_geq[(j - 1) % ell] += r
        for h in heights[:r]:
            n1_geq[(h - j) % ell] += 1
            if h > j:
                n1_gt[(h - j) % ell] += 1
    return n1_geq, n1_gt, n2_geq


def appendixA_report(max_size):
    """Check both box-count bijections for every partition of size up to
    max_size, ell in {2,3,4,5}, and every admissible residue."""
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    failures = []
    checked = 0
    by_size = [enumerate_partitions(n) for n in range(max_size + 1)]
    for ell in (2, 3, 4, 5):
        for mus in by_size:
            for mu in mus:
                n1_geq, n1_gt, n2_geq = box_count_table(mu, ell)
                for c in range(-ell + 1, ell):
                    checked += 1
                    g1, g2, gt = n1_geq[c % ell], n2_geq[c % ell], n1_gt[c % ell]
                    want_gt = g2 - (mu[0] if mu and c == 0 else 0)
                    if g1 != g2 or gt != want_gt:
                        failures.append({"mu": list(mu), "ell": ell,
                                         "c": c, "n1_geq": g1, "n2_geq": g2,
                                         "n1_gt": gt})
    return {"equal": not failures, "checked": checked,
            "failures": failures[:10]}


def partition_sum_lhs(a, ell, n_max):
    """Lemma 3.2's colored partition sum of residue a: each partition with
    |mu| <= n_max adds y^col(mu) prod_b q_b^(boxes of color b), y playing v
    and q_b playing X_b in canonical_space(ell, n_max)."""
    terms = {}
    for n in range(n_max + 1):
        for mu in enumerate_partitions(n):
            m = (mu[0] if mu else 0,) + colored_counts(mu, a, ell)
            terms[m] = terms.get(m, 0) + 1
    # every count is >= 1 and every degree |mu| <= n_max: already clean
    return Series(canonical_space(ell, n_max), terms)
