"""Tour of the three convexity invariants and their case analysis.

Run:  python3 demos/invariants_tour.py
"""

import wtoll as w


def report(name, g):
    a = w.wtn(g)
    b = w.wth(g)
    print(f"{name:>18}:  wtn={a.value} [{a.case_tag}, witness {sorted(a.witness)}]"
          f"   wth={b.value} [{b.case_tag}, witness {sorted(b.witness)}]")


def main():
    print("interval number wtn and hull number wth, with solver branches:\n")
    report("P4", w.path_graph(4))
    report("C5", w.cycle_graph(5))
    report("K5", w.complete_graph(5))
    report("star K_{1,3}", w.star_graph(4))
    report("bowtie", w.bowtie_graph())
    kite_tail = w.Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (3, 4), (4, 5), (5, 6), (6, 3)])
    report("K4 + C4 glued", kite_tail)

    print("\nconvexity number wtc (max proper convex set):")
    for name, g in [("P4", w.path_graph(4)), ("C5", w.cycle_graph(5)),
                    ("K6", w.complete_graph(6))]:
        res = w.wtc_exact(g)
        print(f"  {name}: wtc={res.value} [{res.case_tag}, witness {sorted(res.witness)}]")


if __name__ == "__main__":
    main()
