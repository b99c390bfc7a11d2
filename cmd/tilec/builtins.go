package main

import (
	"fmt"
	"strings"

	"tilespace/internal/apps"
	"tilespace/internal/compile"
)

// builtins are the paper's workloads as internal/apps defines them; tilec
// adds only the space and tile factors each compiles at by default.
var builtins = []struct {
	name           string
	app            func(a, b int64) (*apps.App, error)
	space, factors []int64
}{
	{"sor", apps.SOR, []int64{100, 200}, []int64{50, 38, 20}},
	{"jacobi", apps.Jacobi, []int64{50, 100}, []int64{10, 38, 38}},
	{"adi", apps.ADI, []int64{100, 256}, []int64{10, 65, 65}},
}

// fromBuiltin is a built-in app under one of its tiling families; the
// generated C prints the app's own kernel and boundary values.
func fromBuiltin(name string, space, factors []int64, family string) (compile.Spec, error) {
	for _, b := range builtins {
		if b.name != name {
			continue
		}
		if len(space) == 0 {
			space = b.space
		}
		if len(factors) == 0 {
			factors = b.factors
		}
		if len(space) != 2 || len(factors) != 3 {
			return compile.Spec{}, fmt.Errorf("%s needs -space of two sizes and -factors x,y,z", name)
		}
		for _, f := range factors {
			if f < 1 {
				return compile.Spec{}, fmt.Errorf("%s: tile factor %d is below 1", name, f)
			}
		}
		app, err := b.app(space[0], space[1])
		if err != nil {
			return compile.Spec{}, err
		}
		var names []string
		for _, f := range append([]apps.TilingFamily{app.Rect}, app.NonRect...) {
			if f.Name != family {
				names = append(names, f.Name)
				continue
			}
			spec := compile.App(app, f.H(factors[0], factors[1], factors[2]))
			spec.Name = name + "_" + family
			return spec, nil
		}
		return compile.Spec{}, fmt.Errorf("%s families: %s", name, strings.Join(names, ", "))
	}
	return compile.Spec{}, fmt.Errorf("unknown app %q (have sor, jacobi, adi)", name)
}
