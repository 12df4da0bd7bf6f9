package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// The wire codec covers the two commands the benchmark sends — set and
// single-key get — and every reply ptmserve can give to them.

// AppendSet appends "set <key> 0 0 <len>\r\n<value>\r\n".
func AppendSet(dst []byte, key string, value []byte) []byte {
	dst = append(dst, "set "...)
	dst = append(dst, key...)
	dst = append(dst, " 0 0 "...)
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, value...)
	return append(dst, "\r\n"...)
}

// AppendGet appends "get <key>\r\n".
func AppendGet(dst []byte, key string) []byte {
	dst = append(dst, "get "...)
	dst = append(dst, key...)
	return append(dst, "\r\n"...)
}

// ReplyKind classifies one reply.
type ReplyKind uint8

const (
	ReplyStored ReplyKind = iota // "STORED"
	ReplyValue                   // "VALUE ..." block closed by "END"
	ReplyMiss                    // bare "END": key absent
	ReplyError                   // ERROR / CLIENT_ERROR / SERVER_ERROR / anything else
)

// Reply is one parsed reply. Data (a hit's value) and Line (an error's
// text) alias the reader's scratch and are valid until the next read.
type Reply struct {
	Kind ReplyKind
	Data []byte
	Line []byte
}

// ReplyReader parses replies from one connection.
type ReplyReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReplyReader wraps r.
func NewReplyReader(r io.Reader) *ReplyReader {
	return &ReplyReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Buffered reports bytes already received and not yet parsed.
func (rr *ReplyReader) Buffered() int { return rr.r.Buffered() }

// Read parses the next complete reply. An error means the stream is
// broken (I/O error or a malformed VALUE block), not a protocol-level
// refusal — those come back as ReplyError.
func (rr *ReplyReader) Read() (Reply, error) {
	line, err := rr.line()
	if err != nil {
		return Reply{}, err
	}
	switch {
	case bytes.Equal(line, []byte("STORED")):
		return Reply{Kind: ReplyStored}, nil
	case bytes.Equal(line, []byte("END")):
		return Reply{Kind: ReplyMiss}, nil
	case bytes.HasPrefix(line, []byte("VALUE ")):
		f := bytes.Fields(line)
		if len(f) != 4 {
			return Reply{}, fmt.Errorf("loadgen: bad VALUE line %q", line)
		}
		n, err := strconv.Atoi(string(f[3]))
		if err != nil || n < 0 || n > 1<<20 {
			return Reply{}, fmt.Errorf("loadgen: bad VALUE length %q", line)
		}
		if cap(rr.buf) < n+2 {
			rr.buf = make([]byte, n+2)
		}
		data := rr.buf[:n+2]
		if _, err := io.ReadFull(rr.r, data); err != nil {
			return Reply{}, err
		}
		if !bytes.HasSuffix(data, []byte("\r\n")) {
			return Reply{}, fmt.Errorf("loadgen: value of %q not CRLF-terminated", f[1])
		}
		end, err := rr.line()
		if err != nil {
			return Reply{}, err
		}
		if !bytes.Equal(end, []byte("END")) {
			return Reply{}, fmt.Errorf("loadgen: want END after value, got %q", end)
		}
		return Reply{Kind: ReplyValue, Data: data[:n]}, nil
	default:
		return Reply{Kind: ReplyError, Line: line}, nil
	}
}

// line reads one CRLF-terminated line without its terminator.
func (rr *ReplyReader) line() ([]byte, error) {
	line, err := rr.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}
