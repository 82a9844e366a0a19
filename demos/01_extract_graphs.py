"""Walk one bundled design from Verilog text to both graph forms.

Shows the intermediate artifacts most people ask about first: the flattened
source, the chosen top module, and the node/edge counts of the syntax tree
versus the data-flow graph.
"""
import tempfile
from pathlib import Path

from hwgnn import AST, DFG, graph_to_json, hw2graph, load_design_dir

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def main() -> None:
    design_dir = CORPUS / "ht" / "troj_alu_36"
    design = load_design_dir(design_dir)
    print(f"design: {design_dir.name}")
    print(f"files:  {[p.name for p, _ in design.files]}")

    ast = hw2graph(design, AST, design_name=design_dir.name)
    print(f"\nAST: {ast.num_nodes} nodes, {ast.num_edges} edges "
          f"(tree, so edges = nodes - 1)")
    root = ast.nodes[0]  # node ids are DFS preorder, so the root comes first
    print(f"AST root: {root.label} {root.name!r}")

    dfg = hw2graph(design, DFG, design_name=design_dir.name)
    print(f"\nDFG: {dfg.num_nodes} nodes, {dfg.num_edges} edges")
    print("first nodes (an edge points from a value to what it depends on):")
    for node in dfg.nodes[:8]:
        print(f"  #{node.id:<3} {node.label:<8} {node.name or ''}")

    # the comparator trigger shows up as an Eq node; clean designs have none
    eqs = [n for n in dfg.nodes if n.label == "Eq"]
    print(f"\ncomparator (Eq) nodes in this design: {len(eqs)}")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{design_dir.name}.dfg.json"
        out.write_text(graph_to_json(dfg), encoding="utf-8")
        print(f"canonical JSON: {out.stat().st_size} bytes written to {out.name} "
              f"(in a temporary directory, removed on exit)")


if __name__ == "__main__":
    main()
