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

// expVariants lists every exp row kernel: this build holds only the
// pure-Go one.
func expVariants() []expVariant {
	return []expVariant{
		{"go", goExpRow, ""},
		{"avx2", nil, "assembly not built (non-amd64 or gmorph_novec)"},
	}
}

// epilogueVariants lists every conv epilogue tier: this build holds only
// the pure-Go one.
func epilogueVariants() []epilogueVariant {
	return []epilogueVariant{
		{"go", goBiasRow, goAddReLURow, goBNRow, goMaxPool2x2, ""},
		{"avx2", nil, nil, nil, nil, "assembly not built (non-amd64 or gmorph_novec)"},
	}
}
