"""Tour of the clique separator decomposition and twin classes.

Run:  python3 demos/decomposition_tour.py
"""

import wtoll as w


def chain_of_triangles(k):
    edges = []
    for t in range(k):
        a, b, c = 2 * t, 2 * t + 1, 2 * t + 2
        edges += [(a, b), (a, c), (b, c)]
    return w.Graph(2 * k + 1, edges)


def describe(name, g):
    print(f"\n{name}: n={g.n}, m={g.m}")
    dec = w.decompose(g)
    for i, atom in enumerate(dec.atoms):
        tags = []
        if dec.extremal[i]:
            tags.append(f"extremal (partner atom {dec.partner[i]})")
        print(
            f"  atom {i}: {sorted(atom)}"
            f"  shared={sorted(dec.shared[i])}"
            f"  exclusive={sorted(dec.exclusive[i])}"
            + ("  " + ", ".join(tags) if tags else "")
        )
    print("  prime:", w.is_prime(g))


def main():
    describe("P4", w.path_graph(4))
    describe("C5 (no clique separator)", w.cycle_graph(5))
    describe("bowtie", w.bowtie_graph())
    describe("chain of four triangles", chain_of_triangles(4))

    print("\ntwin classes group vertices with equal closed neighborhoods:")
    for name, g in [("bowtie", w.bowtie_graph()), ("K4", w.complete_graph(4))]:
        part = w.twin_classes(g)
        print(f"  {name}: {[sorted(c) for c in part.classes]}")

    g = w.bowtie_graph()
    part = w.twin_classes(g)
    print("\nclasses made of extreme vertices:",
          [sorted(part.classes[i]) for i in w.extreme_twin_classes(g, part)])


if __name__ == "__main__":
    main()
