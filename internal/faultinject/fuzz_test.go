package faultinject

import "testing"

// FuzzParseSpec feeds arbitrary -faults values to ParseSpec. It must
// never panic, and a spec it accepts must round-trip through
// Spec.String: the rendering parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"seed=7,error=0.3,reset=0.1,partial=0.1,latency=0.2:50ms",
		"seed=-1",
		"error=1,reset=0",
		"latency=0.5:1h2m3.5s",
		" seed = 3 , ,error=0.25",
		"error=NaN",
		"latency=0:5ms",
		"latency=0.5:-1s",
		"bogus=1",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil || back != s {
			t.Fatalf("%q parses to %#v, renders %q, re-parses to %#v, %v",
				text, s, s.String(), back, err)
		}
	})
}
