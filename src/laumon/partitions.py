"""Young-diagram primitives.

A partition mu is the tuple of its row lengths, positive and weakly
decreasing, with () the empty partition; its column count is mu[0] (0 if
empty).  The box set is {(i, j) : 1 <= i <= mu[j-1]} with i the column
index and j the row index, both 1-based.  The color of box (i, j) in an
a-colored diagram is a - j + 1 reduced mod ell and depends only on the row.

`partitions_upto(n)` builds the partitions of every size up to n in one
table, each size from the smaller ones; a caller that needs several sizes
reads one table.  The leg of box (i, j) is h(i) - j, h the column height;
each column holds one box of each leg below its height, so `leg_counts`
equals the rows, the identity `appendixA_report` compares once per
partition.
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


def partitions_upto(n):
    """[partitions of m for m in 0..n], each list in descending
    lexicographic order, built by size: the partitions of m with first part
    f are f put before those of m - f whose first part is <= f, a suffix of
    that list.  Each call builds its own table."""
    if n < 0:
        raise ValueError("n must be non-negative")
    # starts[k][f]: where the partitions of k with first part <= f begin
    table, starts = [[()]], [[0]]
    for m in range(1, n + 1):
        out, start = [], [0] * (m + 1)
        for f in range(m, 0, -1):
            start[f] = len(out)
            rest = table[m - f]
            out += [(f,) + mu for mu in rest[starts[m - f][min(f, m - f)]:]]
        table.append(out)
        starts.append(start)
    return table


def enumerate_partitions(n):
    """All partitions of n, each once, in descending lexicographic order."""
    return partitions_upto(n)[n]


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


def leg_counts(mu):
    """legs[k]: the boxes (i, j) of mu with leg h(i) - j = k, from one walk
    over the boxes, column by column, from the column heights h."""
    legs = [0] * len(mu)
    for h in col_heights(mu):
        for k in range(h):
            legs[k] += 1
    return legs


def box_count_table(mu, ell):
    """(N1>=, N1>, N2>=) of mu, each a list indexed by c % ell: N1 sums the
    leg counts by residue, N1> leaving out the legs 0, and N2 adds each row
    length at its row index j - 1, as the count_* functions do."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    legs = leg_counts(mu)
    n1_geq, n2_geq = [0] * ell, [0] * ell
    for k, x in enumerate(legs):
        n1_geq[k % ell] += x
    for k, r in enumerate(mu):
        n2_geq[k % ell] += r
    n1_gt = n1_geq[:]
    n1_gt[0] -= legs[0] if legs else 0
    return n1_geq, n1_gt, n2_geq


def appendixA_report(max_size):
    """Check both box-count bijections for every partition of size up to
    max_size, ell in {2,3,4,5}, and every admissible residue."""
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    mus = [mu for by_size in partitions_upto(max_size) for mu in by_size]
    ells = (2, 3, 4, 5)
    # N1>= at residue c sums legs[k] over k = c mod ell, and N2>= sums the
    # rows mu[k] over the same k; N1> leaves out legs[0], and its other
    # side, N2>= less mu[0] at c = 0, leaves out mu[0].  So legs == mu
    # certifies every (ell, c) case of both bijections: only a partition
    # whose legs differ gets tables, walked residue by residue where they
    # differ too.  Each residue c in -ell+1..ell-1 is one case.
    wrong = [mu for mu in mus if leg_counts(mu) != list(mu)]
    failures = []
    for ell in ells:
        for mu in wrong:
            n1_geq, n1_gt, n2_geq = box_count_table(mu, ell)
            want_gt = n2_geq[:]
            want_gt[0] -= mu[0] if mu else 0
            if n1_geq == n2_geq and n1_gt == want_gt:
                continue
            for c in range(-ell + 1, ell):
                g1, g2, gt = n1_geq[c % ell], n2_geq[c % ell], n1_gt[c % ell]
                if g1 != g2 or gt != want_gt[c % ell]:
                    failures.append({"mu": list(mu), "ell": ell,
                                     "c": c, "n1_geq": g1, "n2_geq": g2,
                                     "n1_gt": gt})
    return {"equal": not failures,
            "checked": len(mus) * sum(2 * ell - 1 for ell in ells),
            "failures": failures[:10]}


def partition_sums(ell, n_max):
    """[Lemma 3.2's colored partition sum of residue a for a < ell]: each
    partition with |mu| <= n_max adds y^col(mu) prod_b q_b^(boxes of color
    b), y playing v and q_b playing X_b in canonical_space(ell, n_max).  One
    walk at residue 0 serves all: counts_a[b] = counts_0[(b - a) mod ell]."""
    terms = {}
    for mus in partitions_upto(n_max):
        for mu in mus:
            m = (mu[0] if mu else 0,) + colored_counts(mu, 0, ell)
            terms[m] = terms.get(m, 0) + 1
    space = canonical_space(ell, n_max)
    # every count is >= 1 and every degree |mu| <= n_max: already clean
    return [Series(space, {m[:1] + m[1 + ell - a:] + m[1:1 + ell - a]: c
                           for m, c in terms.items()}) for a in range(ell)]
