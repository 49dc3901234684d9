package main

import (
	"math"
	"testing"
)

func TestValidScale(t *testing.T) {
	tests := []struct {
		name  string
		scale float64
		valid bool
	}{
		{"zero", 0, false},
		{"negative", -3, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"above one", 1.5, false},
		{"small", 0.05, true},
		{"full", 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := validScale(tt.scale); got != tt.valid {
				t.Errorf("validScale(%v) = %v, want %v", tt.scale, got, tt.valid)
			}
		})
	}
}
