"""Young-diagram primitives.

Partitions are stored as weakly decreasing row lengths; the box set is
{(i, j) : 1 <= i <= rows[j-1]} with i the column index and j the row
index, both 1-based.  The color of box (i, j) in an a-colored diagram is
a - j + 1 reduced mod ell and depends only on the row.
"""

from .series import Series, VariableSpace


class Partition:
    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(int(r) for r in rows)
        for k, r in enumerate(rows):
            if r < 1:
                raise ValueError("row lengths must be positive: %r" % (rows,))
            if k and rows[k - 1] < r:
                raise ValueError("rows must be weakly decreasing: %r" % (rows,))
        self.rows = rows

    @property
    def size(self):
        return sum(self.rows)

    @property
    def col(self):
        """Number of columns, i.e. the first row length (0 if empty)."""
        return self.rows[0] if self.rows else 0

    def row(self, j):
        """Length of row j (1-based); 0 beyond the diagram."""
        return self.rows[j - 1] if 1 <= j <= len(self.rows) else 0

    def col_heights(self):
        """Tuple of column heights (the conjugate partition), read from the
        bottom row up: the columns a row adds past the rows below it have
        that row's index as their height."""
        heights = []
        for j in range(len(self.rows), 0, -1):
            heights += [j] * (self.rows[j - 1] - len(heights))
        return tuple(heights)

    def boxes(self):
        for j, r in enumerate(self.rows, start=1):
            for i in range(1, r + 1):
                yield (i, j)

    def to_list(self):
        return list(self.rows)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Partition(%r)" % (list(self.rows),)


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
    return [Partition(rows) for rows in _descending(n, n)]


def colored_counts(mu, a, ell):
    """Box counts per color b = (a - j + 1) mod ell; entries sum to |mu|."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    counts = [0] * ell
    for j, r in enumerate(mu.rows, start=1):
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
    heights = mu.col_heights()
    return sum(1 for i, j in mu.boxes() if (heights[i - 1] - j - c) % ell == 0)


def count_N1_gt(mu, c, ell):
    """Same as count_N1_geq but restricted to h(i) - j > 0."""
    _check_residue(c, ell)
    heights = mu.col_heights()
    return sum(1 for i, j in mu.boxes()
               if heights[i - 1] - j > 0 and (heights[i - 1] - j - c) % ell == 0)


def count_N2_geq(mu, c, ell):
    """Boxes (i, j) with j - 1 congruent to c mod ell."""
    _check_residue(c, ell)
    return sum(r for j, r in enumerate(mu.rows, start=1) if (j - 1 - c) % ell == 0)


def box_count_table(mu, ell):
    """(N1>=, N1>, N2>=) of mu, each a list indexed by c % ell, from one pass
    over the rows: N1 counts the legs h(i) - j of the boxes and N2 adds each
    row length at its row index j - 1, as the count_* functions do."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    heights = mu.col_heights()
    n1_geq, n1_gt, n2_geq = [0] * ell, [0] * ell, [0] * ell
    for j, r in enumerate(mu.rows, start=1):
        n2_geq[(j - 1) % ell] += r
        for h in heights[:r]:
            n1_geq[(h - j) % ell] += 1
            if h > j:
                n1_gt[(h - j) % ell] += 1
    return n1_geq, n1_gt, n2_geq


def appendixA_report(max_size):
    """Check both box-count bijections for every partition of size up to
    max_size, ell in {2,3,4,5}, and every admissible residue."""
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
                    want_gt = g2 - (mu.col if c == 0 else 0)
                    if g1 != g2 or gt != want_gt:
                        failures.append({"mu": mu.to_list(), "ell": ell,
                                         "c": c, "n1_geq": g1, "n2_geq": g2,
                                         "n1_gt": gt})
    return {"equal": not failures, "checked": checked,
            "failures": failures[:10]}


def partition_sum_lhs(a, ell, n_max):
    """Sum over all partitions with |mu| <= n_max of v^col(mu) times the
    product of X_color over the boxes, as a Series in (v, X0, ..)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    names = ("v",) + tuple("X%d" % b for b in range(ell))
    space = VariableSpace(names, names[1:], n_max)
    terms = {}
    for n in range(n_max + 1):
        for mu in enumerate_partitions(n):
            counts = colored_counts(mu, a, ell)
            m = space.mono({"v": mu.col},
                           **{"X%d" % b: counts[b] for b in range(ell)})
            terms[m] = terms.get(m, 0) + 1
    return Series.from_terms(space, terms)
