package client

import "testing"

func BenchmarkParseURL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseURL("sequoia://controller1:7001,controller2:7002/db?user=app&fetch=100"); err != nil {
			b.Fatal(err)
		}
	}
}
