//go:build !amd64 || gmorph_novec

package tensor

// qdotVariants lists every int8 block kernel: this build holds only the
// pure-Go one.
func qdotVariants() []qdotVariant {
	const reason = "assembly not built (non-amd64 or gmorph_novec)"
	return []qdotVariant{
		{"go", goQDot4x2, ""},
		{"avx2", nil, reason},
		{"vnni", nil, reason},
	}
}

// geluVariants lists every GELU kernel pair: this build holds only the
// pure-Go one.
func geluVariants() []geluVariant {
	return []geluVariant{
		{"go", goGELURow, goGELUGradRow, ""},
		{"avx2", nil, nil, "assembly not built (non-amd64 or gmorph_novec)"},
	}
}
