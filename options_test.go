package swtnas

import (
	"errors"
	"strings"
	"testing"
)

// TestValidateFieldErrors pins which field each rejection names, so CLI and
// server errors point at the right input.
func TestValidateFieldErrors(t *testing.T) {
	valid := SearchOptions{App: "nt3", Scheme: "LCS", Budget: 4}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}

	cases := []struct {
		name  string
		mut   func(*SearchOptions)
		field string
	}{
		{"missing app", func(o *SearchOptions) { o.App = "" }, "App"},
		{"unknown app", func(o *SearchOptions) { o.App = "imagenet" }, "App"},
		{"unknown scheme", func(o *SearchOptions) { o.Scheme = "DTW" }, "Scheme"},
		{"zero budget", func(o *SearchOptions) { o.Budget = 0 }, "Budget"},
		{"negative budget", func(o *SearchOptions) { o.Budget = -1 }, "Budget"},
		{"negative workers", func(o *SearchOptions) { o.Workers = -2 }, "Workers"},
		{"negative kernel workers", func(o *SearchOptions) { o.KernelWorkers = -1 }, "KernelWorkers"},
		{"negative train n", func(o *SearchOptions) { o.TrainN = -1 }, "TrainN"},
		{"negative val n", func(o *SearchOptions) { o.ValN = -1 }, "ValN"},
		{"negative population", func(o *SearchOptions) { o.PopulationSize = -1 }, "PopulationSize"},
		{"negative sample", func(o *SearchOptions) { o.SampleSize = -1 }, "SampleSize"},
		{"negative retain", func(o *SearchOptions) { o.RetainTopK = -1 }, "RetainTopK"},
		{"sample exceeds population", func(o *SearchOptions) { o.PopulationSize = 4; o.SampleSize = 8 }, "SampleSize"},
		{"resume without journal", func(o *SearchOptions) { o.Resume = true }, "Resume"},
		{"weight without pool", func(o *SearchOptions) { o.Weight = 2 }, "Weight"},
		{"kernel workers with pool", func(o *SearchOptions) { o.Pool = &EvaluatorPool{}; o.KernelWorkers = 2 }, "KernelWorkers"},
		{"negative proxy admit", func(o *SearchOptions) { o.ProxyFilter = true; o.ProxyAdmit = -0.1 }, "ProxyAdmit"},
		{"proxy admit above one", func(o *SearchOptions) { o.ProxyFilter = true; o.ProxyAdmit = 1.5 }, "ProxyAdmit"},
		{"proxy admit without filter", func(o *SearchOptions) { o.ProxyAdmit = 0.5 }, "ProxyAdmit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := valid
			tc.mut(&opt)
			err := opt.Validate()
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			var ie *InvalidOptionError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %T %v, want *InvalidOptionError", err, err)
			}
			if ie.Field != tc.field {
				t.Fatalf("field = %q, want %q (err %v)", ie.Field, tc.field, err)
			}
			if !strings.Contains(err.Error(), "SearchOptions."+tc.field) {
				t.Fatalf("message %q does not name the field", err.Error())
			}
		})
	}
}

// TestSearchUsesValidate: the one-shot entry points reject through the same
// typed error, so callers can switch on the field regardless of entry point.
func TestSearchUsesValidate(t *testing.T) {
	_, err := Search(SearchOptions{App: "nt3", Scheme: "LCS"})
	var ie *InvalidOptionError
	if !errors.As(err, &ie) || ie.Field != "Budget" {
		t.Fatalf("Search error = %v, want InvalidOptionError on Budget", err)
	}
	_, err = New(SearchOptions{App: "bogus", Budget: 1})
	if !errors.As(err, &ie) || ie.Field != "App" {
		t.Fatalf("New error = %v, want InvalidOptionError on App", err)
	}
}
