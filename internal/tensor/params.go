package tensor

// gemmParams is the blocked GEMM's tiling: B, packed whole into nr-wide
// strips, is consumed in kc x nc panels (nc a multiple of nr), and the
// microkernel holds an mr x nr block of the destination in registers
// across the k loop. Both kernel tiers implement two register blocks, 4x16
// and 8x8.
type gemmParams struct{ kc, nc, mr, nr int }

// gemmPanel is the k and n extent of a packed B panel: a full panel is
// 256 KiB, sized to stay L2-resident.
const gemmPanel = 256

// gemmBlocking is the driver's one blocking rule, read off the real shape
// of dst[m,n] = a[m,k]·B. Panels are always gemmPanel square. The register
// block is 8x8 for narrow, deep products — n <= 16 columns over k >= 2304,
// the deep convs at small batch, where m = OutC, n = N·OH·OW and
// k = C·K·K, and a 4x16 strip would carry 12 padding lanes of a 4-pixel
// plane — and 4x16 everywhere else.
//
// The rule never changes the panels, so it never regroups a k sum. On the
// assembly tier every kernel loads C and adds k in order with one FMA per
// step, so the two blocks give the same bits (FuzzGemmParamsParity holds
// them to it). The pure-Go tier keeps 4x16 everywhere: its ragged-tile
// kernel adds four k steps at a time where its full-tile kernels add one,
// and a block swap moves elements between the two.
func gemmBlocking(n, k int) gemmParams {
	if vecActive && n <= 16 && k >= 2304 {
		return gemmParams{kc: gemmPanel, nc: gemmPanel, mr: 8, nr: 8}
	}
	return gemmParams{kc: gemmPanel, nc: gemmPanel, mr: 4, nr: 16}
}

// itoa is a minimal positive-int formatter, avoiding a strconv import in
// this hot-path package for KernelSignature alone.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
