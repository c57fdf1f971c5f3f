package wire

import (
	"bufio"
	"io"
	"testing"
)

// repeatReader replays one frame forever, so Recv benchmarks measure
// steady-state decode cost without a socket in the way.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func benchMessages() map[string]*Message {
	batch := make([]Submit, 32)
	for i := range batch {
		batch[i] = Submit{Src: "DC1", Dst: "DC4", Bandwidth: 100 + float64(i), Target: 0.999, Charge: 10, RefundFrac: 0.5}
	}
	return map[string]*Message{
		"submit":      {Type: TypeSubmit, Seq: 7, Submit: &Submit{DemandID: 3, Src: "DC1", Dst: "DC4", Bandwidth: 500, Target: 0.999, Charge: 500, RefundFrac: 0.1}},
		"submitbatch": {Type: TypeSubmitBatch, Seq: 8, SubmitBatch: batch},
		"admitresult": {Type: TypeAdmitResult, Seq: 9, AdmitResult: &AdmitResult{DemandID: 3, Admitted: true, Method: "fixed", DelayMs: 0.4}},
		"withdraw":    {Type: TypeWithdraw, Seq: 10, WithdrawID: 3},
	}
}

func BenchmarkEncode(b *testing.B) {
	for name, m := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			bp := getBuf()
			var bytes int64
			for i := 0; i < b.N; i++ {
				stored, off, err := encodeFrame((*bp)[:0], m)
				if err != nil {
					b.Fatal(err)
				}
				*bp = stored
				bytes += int64(len(stored) - off)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "frame-bytes")
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for name, m := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			frame := frameBytes(b, m)
			c := &Conn{r: bufio.NewReader(&repeatReader{data: frame})}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Recv(); err != nil && err != io.EOF {
					b.Fatal(err)
				}
			}
		})
	}
}
