package lance

import (
	"bytes"

	"repro/internal/turbochannel"
	"repro/internal/xkernel"
)

// PoisonBufferPools releases n shared windows and n receive pools the size
// of a device's, with every byte of each window and of each receive
// buffer, headroom included, set to pattern, so the devices built next
// draw dirty buffers from the recycling pools.
func PoisonBufferPools(n int, pattern byte) {
	regions := make([]*turbochannel.Region, n)
	pools := make([]*xkernel.Pool, n)
	for i := range regions {
		regions[i] = turbochannel.NewRegion(turbochannel.SparseBase, windowBytes)
		regions[i].WriteBuf(0, bytes.Repeat([]byte{pattern}, windowBytes))

		p := xkernel.NewPool(nil, bufBytes, ringSize)
		p.ShortCircuit = true
		msgs := make([]*xkernel.Msg, ringSize)
		for j := range msgs {
			msgs[j] = p.Get()
			_ = msgs[j].Append(bytes.Repeat([]byte{pattern}, bufBytes))
			for msgs[j].Push([]byte{pattern}) == nil {
			}
		}
		for _, m := range msgs {
			p.Refresh(m)
		}
		pools[i] = p
	}
	for i := range regions {
		regions[i].Release()
		pools[i].Release()
	}
}
