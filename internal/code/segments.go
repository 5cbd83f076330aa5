package code

// HotLabels returns the labels of f's non-outlinable (mainline) blocks in
// source order.
func HotLabels(f *Function) []string {
	var out []string
	for _, b := range f.Blocks {
		if !b.Kind.Outlinable() {
			out = append(out, b.Label)
		}
	}
	return out
}

// ColdLabels returns the labels of f's outlinable blocks in source order.
func ColdLabels(f *Function) []string {
	var out []string
	for _, b := range f.Blocks {
		if b.Kind.Outlinable() {
			out = append(out, b.Label)
		}
	}
	return out
}

// AllLabels returns every block label in source order.
func AllLabels(f *Function) []string {
	out := make([]string, len(f.Blocks))
	for i, b := range f.Blocks {
		out[i] = b.Label
	}
	return out
}

// SegmentSize computes the static instruction count a segment would occupy
// if the given blocks were packed contiguously in the given order, including
// materialized terminators.
func SegmentSize(f *Function, labels []string) int { return f.Index().SegmentSize(f, labels) }

// SegmentBytes is SegmentSize in bytes.
func SegmentBytes(f *Function, labels []string) uint64 {
	return uint64(SegmentSize(f, labels) * instrBytes)
}

// SegmentSize is code.SegmentSize on f's index x (f.Index()), for a
// caller sizing several segments of one function.
func (x *BlockIndex) SegmentSize(f *Function, labels []string) int {
	n, hint := 0, -1
	for i, l := range labels {
		at := x.Pos(l, hint)
		if at < 0 {
			continue
		}
		hint = at + 1
		b := f.Blocks[at]
		fall := ""
		if i+1 < len(labels) {
			fall = labels[i+1]
		}
		n += len(b.Instrs) + termStaticSize(f, b, fall)
	}
	return n
}

// SegmentBytes is SegmentSize in bytes.
func (x *BlockIndex) SegmentBytes(f *Function, labels []string) uint64 {
	return uint64(x.SegmentSize(f, labels) * instrBytes)
}
