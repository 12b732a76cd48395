"""Tour of the walk membership test, intervals, hulls, and extreme vertices.

Run:  python3 demos/walks_and_intervals.py
"""

import wtoll as w
from wtoll.oracle import oracle_membership  # the test-aid walk enumerator


def show(title):
    print(f"\n=== {title} ===")


def main():
    show("weakly toll walks on a path")
    p4 = w.path_graph(4)  # 0 - 1 - 2 - 3
    wit = w.in_weakly_toll_walk(p4, 0, 3, 1)
    print("vertex 1 sits on a weakly toll (0,3)-walk:")
    print(f"  walk enters through {wit.v_u}, leaves through {wit.v_w}")
    print(f"  free component: {sorted(wit.component)}")
    print("the enumeration oracle finds the walk itself:",
          oracle_membership(p4, 0, 3, 1).sequence)

    show("a walk may double back")
    star = w.star_graph(4)  # center 0, leaves 1..3
    walk = oracle_membership(star, 1, 2, 3)
    print("leaf 3 lies between leaves 1 and 2 via:", walk.sequence)
    print("so the interval of two leaves is everything:",
          sorted(w.interval(star, {1, 2})))

    show("intervals vs hulls")
    g = w.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])  # C4 + pendant
    s = {1, 4}
    print("I({1,4})  =", sorted(w.interval(g, s)))
    print("H({1,4})  =", sorted(w.hull(g, s)), "(one more round closes it)")
    print("convex?   ", w.is_convex(g, w.hull(g, s)))

    show("extreme vertices")
    for name, graph in [("P4", p4), ("C5", w.cycle_graph(5)), ("K4", w.complete_graph(4)),
                        ("star", star), ("bowtie", w.bowtie_graph())]:
        print(f"  ext({name}) = {sorted(w.extreme_vertices(graph))}")


if __name__ == "__main__":
    main()
