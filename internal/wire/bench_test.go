package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
)

func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 1024)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, Frame{Type: 7, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncoderTypicalMessage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEncoder(256)
		e.String("prod")
		e.String("app")
		e.String("secret")
		e.String("JDBC")
		e.Int32(3)
		e.Int32(0)
		e.String("linux-x86_64")
		e.Uint64(uint64(i))
		_ = e.Bytes()
	}
}

// BenchmarkEncoderPooledMessage is BenchmarkEncoderTypicalMessage
// through the encoder pool; steady state must be allocation-free.
func BenchmarkEncoderPooledMessage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder(256)
		e.String("prod")
		e.String("app")
		e.String("secret")
		e.String("JDBC")
		e.Int32(3)
		e.Int32(0)
		e.String("linux-x86_64")
		e.Uint64(uint64(i))
		_ = e.Bytes()
		PutEncoder(e)
	}
}

// BenchmarkFileChunkSendBody is the FILE_DATA path as production runs
// it: the server scatter-sends a 13-byte chunk head and a slice of the
// stored image (SendBody), the bootloader reads the payload straight
// into its pre-sized blob (RecvBody), here over a pipe. Sizes are the
// chunk sizes of drivobench's cold_bootstrap and upgrade_storm.
func BenchmarkFileChunkSendBody(b *testing.B) {
	for _, size := range []int{256 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			data := bytes.Repeat([]byte{0x5A}, size)
			var head [13]byte
			dst := make([]byte, len(head)+size)
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			tx, rx := NewConn(server), NewConn(client)
			done := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					err := rx.RecvBody(0, func(_ uint16, n int, body io.Reader) error {
						_, err := io.ReadFull(body, dst[:n])
						return err
					})
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tx.SendBody(7, head[:], data); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDecoderTypicalMessage(b *testing.B) {
	e := NewEncoder(256)
	e.String("prod")
	e.String("app")
	e.String("secret")
	e.String("JDBC")
	e.Int32(3)
	e.Int32(0)
	e.String("linux-x86_64")
	e.Uint64(42)
	payload := e.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(payload)
		_ = d.String()
		_ = d.String()
		_ = d.String()
		_ = d.String()
		_ = d.Int32()
		_ = d.Int32()
		_ = d.String()
		_ = d.Uint64()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}
