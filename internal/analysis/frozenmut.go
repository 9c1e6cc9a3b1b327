package analysis

import (
	"go/ast"
	"go/types"
)

// FrozenMut flags calls to mutating Relation/Database methods on
// values that flow from the freezing surface: an explicit Freeze(), an
// Engine.Snapshot(), or a Renamed() identity view. These values are
// shared with concurrent readers; mutating one corrupts a published
// snapshot. The check is a lexical def-use pass per function body:
//
//   - r.Freeze() / db.Freeze() marks the receiver frozen from that
//     point on,
//   - x := e.Snapshot(), v := r.Renamed(...) mark x/v frozen,
//   - aliases (y := x) and projections (db.Rels, db.Rels[i]) of frozen
//     values are frozen,
//   - Clone() yields a fresh, mutable value (the copy-on-write idiom
//     `r := db.Rels[i].Clone(); r.Insert(t)` stays legal),
//
// and any frozen value receiving Insert / InsertBlock / InsertMap /
// DeleteBlock / AppendStored / SetChunkID is a finding. Guarded methods are matched by the defining
// package's name (relation, engine), so the analyzer works unchanged
// on the analysistest fixtures.
var FrozenMut = &Analyzer{
	Name: "frozenmut",
	Doc:  "no mutating Relation/Database method on a value that flows from Freeze/Snapshot/Renamed",
	Run:  runFrozenMut,
}

// frozenProducers are methods whose result is frozen by contract,
// keyed by defining package name.
var frozenProducers = map[string]map[string]bool{
	"relation": {"Renamed": true},
	"engine":   {"Snapshot": true},
}

// frozenMutators are the in-place mutators of the relation package.
// The copy-on-write Database mutators (WithRelation, InsertTuple) are
// and Relation.Without are deliberately absent: they derive new
// snapshots.
var frozenMutators = map[string]bool{
	"Insert":       true,
	"InsertBlock":  true,
	"InsertMap":    true,
	"DeleteBlock":  true,
	"AppendStored": true,
	"SetChunkID":   true,
}

func runFrozenMut(pass *Pass) error {
	for _, f := range pass.Files {
		funcScope(f, func(_ string, body *ast.BlockStmt) {
			frozen := map[*types.Var]bool{}

			var isFrozen func(e ast.Expr) bool
			isFrozen = func(e ast.Expr) bool {
				switch e := e.(type) {
				case *ast.Ident:
					v, ok := pass.Info.Uses[e].(*types.Var)
					return ok && frozen[v]
				case *ast.ParenExpr:
					return isFrozen(e.X)
				case *ast.SelectorExpr:
					// A field of a frozen value (db.Rels) is frozen; a
					// method value is handled at call sites.
					if s, ok := pass.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
						return isFrozen(e.X)
					}
					return false
				case *ast.IndexExpr:
					return isFrozen(e.X)
				case *ast.CallExpr:
					if fn, recv := methodOf(pass.Info, e); fn != nil {
						if frozenProducers[pkgNameOf(fn)][fn.Name()] {
							return true
						}
						// Clone and the other value-producing methods
						// return fresh or at least caller-owned data.
						_ = recv
					}
					return false
				}
				return false
			}

			// rootVar unwraps aliasing expressions to the variable the
			// frozen mark should attach to: Freeze() on db.Rels[i]
			// freezes db... too coarse; attach only to plain idents.
			rootVar := func(e ast.Expr) *types.Var {
				for {
					if p, ok := e.(*ast.ParenExpr); ok {
						e = p.X
						continue
					}
					break
				}
				id, ok := e.(*ast.Ident)
				if !ok {
					return nil
				}
				v, _ := pass.Info.Uses[id].(*types.Var)
				return v
			}

			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					// Propagate frozenness through assignments. Only
					// the 1:1 form matters in practice.
					if len(n.Lhs) == len(n.Rhs) {
						for i, lhs := range n.Lhs {
							v := rootVar(lhs)
							if v == nil {
								if id, ok := lhs.(*ast.Ident); ok {
									v, _ = pass.Info.Defs[id].(*types.Var)
								}
							}
							if v == nil {
								continue
							}
							frozen[v] = isFrozen(n.Rhs[i])
						}
					}
				case *ast.CallExpr:
					fn, recv := methodOf(pass.Info, n)
					if fn == nil {
						return true
					}
					pkg := pkgNameOf(fn)
					if pkg != "relation" && pkg != "engine" {
						return true
					}
					if fn.Name() == "Freeze" {
						if v := rootVar(recv); v != nil {
							frozen[v] = true
						}
						return true
					}
					if frozenMutators[fn.Name()] && isFrozen(recv) {
						pass.Reportf(n.Pos(),
							"%s called on a frozen snapshot value (flows from Freeze/Snapshot/Renamed); Clone() it first or build a copy-on-write derivative",
							fn.Name())
					}
				}
				return true
			})
		})
	}
	return nil
}
