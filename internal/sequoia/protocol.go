// Package sequoia reimplements the slice of the Sequoia database
// clustering middleware the paper builds on (§5.3): controllers that
// expose a virtual database over their own wire protocol, replicate
// writes across every backend of every controller in a group, load-
// balance reads, support backend disable/enable with journal-based
// resynchronization, and optionally embed a Drivolution server
// replicated across controllers (Figure 6).
//
// Simplifications relative to the real Sequoia: total ordering of
// writes uses an in-process group sequencer rather than a group
// communication stack, and cross-controller replication applies
// statements in autocommit.
package sequoia

import (
	"fmt"

	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Frame types of the Sequoia controller protocol. Deliberately distinct
// from the DBMS protocol: Sequoia has its own driver with its own
// compatibility axis ("Sequoia uses its own wire protocol between
// drivers and controllers", §5.3.1).
const (
	msgHello   uint16 = 0x0301
	msgHelloOK uint16 = 0x0302
	msgExec    uint16 = 0x0303
	msgResult  uint16 = 0x0304
	msgPing    uint16 = 0x0305
	msgPong    uint16 = 0x0306
	msgError   uint16 = 0x03FF
)

// protocolVersion is the controller protocol version every controller
// speaks; a driver that offers another is refused at connect time.
const protocolVersion uint16 = 1

// Error codes.
const (
	codeProtocolMismatch uint16 = iota + 1
	codeAuthFailed
	codeNoDatabase
	codeQueryError
	codeNoBackends
)

type helloMsg struct {
	ProtocolVersion uint16
	Database        string
	User            string
	Password        string
	ClientInfo      string
}

func (h helloMsg) encode() []byte {
	e := wire.NewEncoder(128)
	e.Uint16(h.ProtocolVersion)
	e.String(h.Database)
	e.String(h.User)
	e.String(h.Password)
	e.String(h.ClientInfo)
	return e.Bytes()
}

func decodeHello(b []byte) (helloMsg, error) {
	d := wire.NewDecoder(b)
	h := helloMsg{
		ProtocolVersion: d.Uint16(),
		Database:        d.String(),
		User:            d.String(),
		Password:        d.String(),
		ClientInfo:      d.String(),
	}
	return h, d.Err()
}

type execMsg struct {
	SQL        string
	Named      map[string]sqlmini.Value
	Positional []sqlmini.Value
}

func (m execMsg) encode() []byte {
	e := wire.NewEncoder(256)
	e.String(m.SQL)
	e.Uint32(uint32(len(m.Named)))
	for k, v := range m.Named {
		e.String(k)
		sqlmini.EncodeValue(e, v)
	}
	e.Uint32(uint32(len(m.Positional)))
	for _, v := range m.Positional {
		sqlmini.EncodeValue(e, v)
	}
	return e.Bytes()
}

// decodeExec reads a msgExec payload: a named argument takes at least
// its 4-byte key length and a value type byte, a positional one its
// type byte.
func decodeExec(b []byte) (m execMsg, err error) {
	d := wire.NewDecoder(b)
	m.SQL = d.String()
	n := d.Count(5)
	if n > 0 {
		m.Named = make(map[string]sqlmini.Value, n)
	}
	for i := 0; i < n; i++ {
		k := d.String()
		if m.Named[k], err = sqlmini.DecodeValue(d); err != nil {
			return m, err
		}
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		v, err := sqlmini.DecodeValue(d)
		if err != nil {
			return m, err
		}
		m.Positional = append(m.Positional, v)
	}
	return m, d.Err()
}

func encodeResult(cols []string, rows [][]sqlmini.Value, affected int) []byte {
	e := wire.NewEncoder(256)
	e.StringSlice(cols)
	e.Uint32(uint32(len(rows)))
	for _, row := range rows {
		e.Uint32(uint32(len(row)))
		for _, v := range row {
			sqlmini.EncodeValue(e, v)
		}
	}
	e.Int64(int64(affected))
	return e.Bytes()
}

// decodeResult reads a msgResult payload: a row takes at least its
// 4-byte column count, a value its type byte.
func decodeResult(b []byte) (cols []string, rows [][]sqlmini.Value, affected int, err error) {
	d := wire.NewDecoder(b)
	cols = d.StringSlice()
	n := d.Count(4)
	for i := 0; i < n; i++ {
		row := make([]sqlmini.Value, d.Count(1))
		for j := range row {
			if row[j], err = sqlmini.DecodeValue(d); err != nil {
				return nil, nil, 0, err
			}
		}
		rows = append(rows, row)
	}
	affected = int(d.Int64())
	return cols, rows, affected, d.Err()
}

func encodeError(code uint16, msg string) []byte {
	e := wire.NewEncoder(len(msg) + 8)
	e.Uint16(code)
	e.String(msg)
	return e.Bytes()
}

func decodeError(b []byte) (uint16, string, error) {
	d := wire.NewDecoder(b)
	c := d.Uint16()
	m := d.String()
	return c, m, d.Err()
}

func fmtCode(code uint16, msg string) string {
	return fmt.Sprintf("sequoia: [%d] %s", code, msg)
}
